package main

import (
	"fmt"
	"os"

	"xmlest/internal/accuracy"
)

// Accuracy is measured on a fixed reference input rather than the run's
// seeded one: q-errors are heavy-tailed (on the recursive corpus the
// p90 moves by a factor of five between seeds), so a seeded accuracy
// figure would be too noisy to bound, while a fixed one is exact and
// moves only when estimation changes. The set is the sampler's twigs
// over the corpus generated from accuracySeed; each twig's exact count
// must be positive.
const accuracySeed = 0

// accuracyTwigs sizes the reference set per corpus. Exact counting of
// recursive twigs dominates the cost (about 20 ms a twig on the
// recursive corpus), which bounds the set there.
var accuracyTwigs = map[string]int{"dblp": 64, "hier": 192}

var corpora = map[string]func(int64) (*corpus, error){"dblp": dblpCorpus, "hier": hierCorpus}

// accuracyRole is the process role that evaluates the reference set.
// It runs in its own process so its corpus does not count towards the
// measured process's peak memory.
const accuracyRole = "__accuracy"

// runAccuracy evaluates the reference set for corpusName in a child
// process and adds its q-error metrics and checks to rep.
func runAccuracy(cfg runConfig, corpusName string, rep *report) error {
	res, err := runChild(cfg, nil, accuracyRole, "--corpus", corpusName)
	if err != nil {
		return err
	}
	rep.attempted += res.Attempted
	rep.failed += res.Failed
	rep.problems = append(rep.problems, res.Problems...)
	for _, name := range []string{"qerror_p50", "qerror_p90"} {
		m, ok := res.Metrics[name]
		if !ok {
			return fmt.Errorf("accuracy process did not report %s", name)
		}
		rep.metrics[name] = m
	}
	rep.env["accuracy"] = res.Env
	return nil
}

// accuracyChild estimates and exactly counts every twig of the
// reference set and reports the q-error quantiles.
func accuracyChild(args []string) error {
	f, err := parseChildFlags(accuracyRole, args)
	if err != nil {
		return err
	}
	gen, ok := corpora[f.corpus]
	if !ok {
		return fmt.Errorf("unknown --corpus %q", f.corpus)
	}
	c, err := gen(accuracySeed)
	if err != nil {
		return err
	}
	db, err := c.database()
	if err != nil {
		return err
	}
	est, err := db.NewEstimator(serveOptions)
	if err != nil {
		return err
	}
	twigs, err := newSampler(newRand(accuracySeed^twigSeedSalt), db.Catalog()).sample(accuracyTwigs[f.corpus])
	if err != nil {
		return err
	}
	rep := newReport()
	qs := make([]float64, 0, len(twigs))
	for _, t := range twigs {
		n, err := db.Count(t)
		if err != nil {
			return fmt.Errorf("count %s: %w", t, err)
		}
		if n <= 0 {
			rep.check(fmt.Errorf("sampled twig %s has exact count %v", t, n))
			continue
		}
		rep.check(nil)
		r, err := est.Estimate(t)
		if err != nil {
			return fmt.Errorf("estimate %s: %w", t, err)
		}
		qs = append(qs, accuracy.QError(r.Estimate, n))
	}
	q50, _ := percentile(qs, 0.50)
	q90, _ := percentile(qs, 0.90)
	rep.set("qerror_p50", q50, "ratio")
	rep.set("qerror_p90", q90, "ratio")
	rep.env["corpus"] = f.corpus
	rep.env["seed"] = accuracySeed
	rep.env["twigs"] = len(twigs)
	return writeResult(os.Stdout, rep)
}
