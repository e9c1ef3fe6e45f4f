// Command perfbench is the repository's end-to-end benchmark. It drives
// the estimation daemon in-process — requests go through
// server.New(db, cfg).Handler().ServeHTTP, durability through
// xmlest.OpenDurable — so no socket or kernel network path carries load
// and every measured microsecond belongs to the program.
//
//	perfbench --workload read-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the per-layer ladder and prints the per-layer metrics. The last
// line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the environment block. See README.md for the workloads, the metrics
// and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces.
type report struct {
	attempted int
	failed    int
	// problems lists correctness failures that are not per-operation
	// (a twig with a zero exact count, an unrecovered append); any entry
	// makes the run incorrect.
	problems []string
	metrics  map[string]metric
	// env carries the workload's settings and the sample count behind
	// each percentile.
	env map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, env: map[string]any{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check counts one checked operation, failing it when err is non-nil.
// Only the first few failure messages are kept.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// dir is a scratch directory inside the working directory; it is
	// removed when the run ends.
	dir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"read-hot":     readHot,
	"read-wide":    readWide,
	"ingest-mixed": ingestMixed,
}

func main() {
	if len(os.Args) > 1 {
		child := map[string]func([]string) error{
			servingRole: servingChild, recoveryRole: recoveryChild, accuracyRole: accuracyChild, setupRole: setupChild,
		}[os.Args[1]]
		if child != nil {
			if err := child(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench "+os.Args[1]+":", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "measured seconds of load")
	traceFlag := flag.Int("trace", 0, "1 runs the per-layer ladder and prints per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, dir: dir}

	start := time.Now()
	rep, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	env := environment(cfg)
	for k, v := range rep.env {
		env[k] = v
	}
	env["wall_s"] = time.Since(start).Seconds()
	if len(rep.problems) > 0 {
		env["problems"] = rep.problems
	}
	env["fail_frac"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	printHuman(cfg, rep)

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	return out.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
}

// buildDir holds the build output and every run's scratch data; it is
// relative to the checkout the benchmark runs from.
const buildDir = ".bench_build"

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is the block printed before every result: what was
// measured, on what, with which settings.
func environment(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"git_sha":    envOr("PERFBENCH_GIT_SHA", "unknown"),
		"source_sha": envOr("PERFBENCH_SOURCE_SHA", "unknown"),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// printHuman writes the metrics, one per line, to standard error.
func printHuman(cfg runConfig, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%d trace=%v attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.attempted, rep.failed)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "  FAILED:", p)
	}
}
