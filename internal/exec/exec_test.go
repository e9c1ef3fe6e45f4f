package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/core"
	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/planner"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

func setup(t *testing.T, tr *xmltree.Tree, gridSize int) (*core.Estimator, match.Resolver) {
	t.Helper()
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	est, err := core.NewEstimator(cat, core.Options{GridSize: gridSize})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	resolve := func(name string) ([]xmltree.NodeID, error) {
		e, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
	return est, resolve
}

func TestExecuteFig2AllPlans(t *testing.T) {
	tr := xmltree.Fig1Document()
	est, resolve := setup(t, tr, 4)
	p := pattern.MustParse("//department//faculty[.//TA][.//RA]")
	plans, err := planner.Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	want, err := match.CountTwig(tr, p, resolve)
	if err != nil {
		t.Fatalf("CountTwig: %v", err)
	}
	for i, plan := range plans {
		stats, err := Execute(tr, p, plan, resolve)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if float64(stats.Results) != want {
			t.Errorf("plan %d (%s): results = %d, want %v", i, plan, stats.Results, want)
		}
		if len(stats.StepActual) != len(plan.Steps) {
			t.Errorf("plan %d: step stats = %d, want %d", i, len(stats.StepActual), len(plan.Steps))
		}
	}
}

func TestExecuteStepActualsMatchInducedCounts(t *testing.T) {
	// Each step's actual intermediate size must equal the exact match
	// count of the induced sub-twig — the quantity the plan estimates.
	tr := xmltree.Fig1Document()
	est, resolve := setup(t, tr, 4)
	p := pattern.MustParse("//department//faculty//TA")
	plans, err := planner.Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	for _, plan := range plans {
		stats, err := Execute(tr, p, plan, resolve)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		// Final step: full pattern count.
		full, _ := match.CountTwig(tr, p, resolve)
		if float64(stats.StepActual[len(stats.StepActual)-1]) != full {
			t.Errorf("plan %s: final actual %d != full count %v",
				plan, stats.StepActual[len(stats.StepActual)-1], full)
		}
		// First step: base predicate cardinality.
		first, err := resolve(plan.Steps[0].Added.PredName())
		if err != nil {
			t.Fatal(err)
		}
		if int(stats.StepActual[0]) != len(first) {
			t.Errorf("plan %s: scan actual %d != list size %d", plan, stats.StepActual[0], len(first))
		}
	}
}

func TestExecutePropertyMatchesCountTwig(t *testing.T) {
	patterns := []string{"//a//b", "//a//b//c", "//a[.//b]//c", "//a/b", "//b//b//a"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 4+r.Intn(60))
		cat := predicate.NewCatalog(tr)
		cat.AddAllTags()
		g := 4
		if g > tr.MaxPos {
			g = 1
		}
		est, err := core.NewEstimator(cat, core.Options{GridSize: g})
		if err != nil {
			t.Logf("estimator: %v", err)
			return false
		}
		resolve := func(name string) ([]xmltree.NodeID, error) {
			e, err := cat.Get(name)
			if err != nil {
				return nil, err
			}
			return e.Nodes, nil
		}
		for _, src := range patterns {
			p := pattern.MustParse(src)
			want, err := match.CountTwig(tr, p, resolve)
			if err != nil {
				continue // tag absent from this random tree
			}
			plans, err := planner.Enumerate(est, p)
			if err != nil {
				continue
			}
			// Execute the best and the worst plan; both must agree.
			for _, plan := range []*planner.Plan{plans[0], plans[len(plans)-1]} {
				stats, err := Execute(tr, p, plan, resolve)
				if err != nil {
					t.Logf("seed %d %s: %v", seed, src, err)
					return false
				}
				if float64(stats.Results) != want {
					t.Logf("seed %d %s plan %s: got %d want %v", seed, src, plan, stats.Results, want)
					return false
				}
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func randomTree(r *rand.Rand, n int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	tags := []string{"a", "b", "c"}
	open := 0
	for i := 0; i < n; i++ {
		if open > 0 && r.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin(tags[r.Intn(len(tags))])
		open++
	}
	return b.Tree()
}

func TestExecuteChildAxisUpward(t *testing.T) {
	// A plan that binds the child first forces the upward child-axis
	// path (parent lookup).
	tr := xmltree.Fig1Document()
	est, resolve := setup(t, tr, 4)
	p := pattern.MustParse("//faculty/TA")
	plans, err := planner.Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	var upwardPlan *planner.Plan
	for _, plan := range plans {
		if plan.Steps[0].Added.Test == "TA" {
			upwardPlan = plan
		}
	}
	if upwardPlan == nil {
		t.Fatalf("no TA-first plan enumerated")
	}
	stats, err := Execute(tr, p, upwardPlan, resolve)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if stats.Results != 2 {
		t.Errorf("results = %d, want 2", stats.Results)
	}
}

func TestScanOperator(t *testing.T) {
	tr := xmltree.Fig1Document()
	s := NewScan(tr.NodesWithTag("faculty"))
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 3 || s.Emitted() != 3 {
		t.Errorf("scan emitted %d/%d, want 3", n, s.Emitted())
	}
	// Re-open resets.
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if s.Emitted() != 0 {
		t.Errorf("Emitted after re-open = %d, want 0", s.Emitted())
	}
}

func TestExecuteErrors(t *testing.T) {
	tr := xmltree.Fig1Document()
	_, resolve := setup(t, tr, 4)
	p := pattern.MustParse("//faculty//TA")
	if _, err := Execute(tr, p, &planner.Plan{}, resolve); err == nil {
		t.Errorf("empty plan: want error")
	}
}

func TestTotalIntermediate(t *testing.T) {
	s := &Stats{StepActual: []int64{10, 50, 3}}
	if got := s.TotalIntermediate(); got != 50 {
		t.Errorf("TotalIntermediate = %d, want 50 (excludes scan and final)", got)
	}
}
