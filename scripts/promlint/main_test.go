package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"xmlest/internal/metrics"
)

// TestLiveRegistryLintsClean renders a registry with traffic on two
// endpoints, a labelled latency histogram and per-pattern stats with
// q-error digests, and requires the exposition to lint clean.
func TestLiveRegistryLintsClean(t *testing.T) {
	r := metrics.NewRegistry()
	for _, name := range []string{"estimate", "append"} {
		ep := r.Endpoint(name)
		for i := 0; i < 5; i++ {
			ep.Begin()
			ep.End(time.Duration(i+1)*time.Millisecond, metrics.OK)
		}
		ep.Begin()
		ep.End(time.Millisecond, metrics.Error)
	}
	stages := metrics.NewHistogram(metrics.LatencyBounds)
	for i := 0; i < 7; i++ {
		stages.Observe((time.Duration(i) * time.Microsecond).Seconds())
	}
	r.Register(metrics.CollectorFunc(func(e *metrics.Expo) {
		e.HistogramFamily("xqest_test_stage_seconds", "Stage time by stage.")
		e.HistogramSamples("xqest_test_stage_seconds", stages, "stage", "plan")
		e.HistogramSamples("xqest_test_stage_seconds", stages, "stage", `es"ti\mate`)
	}))
	ps := metrics.NewPatternStats(0)
	ps.Observe("//a//b", 3, time.Microsecond)
	ps.Observe("//a//b", 5, 2*time.Microsecond)
	ps.ObserveQError("//a//b", 1.5)
	r.Register(ps)

	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := lint(&buf); len(problems) > 0 {
		t.Fatalf("live exposition has problems:\n%s", strings.Join(problems, "\n"))
	}
}

// TestFreshRegistryLintsClean renders what a daemon exposes before its
// first estimate, a registry with no traffic and per-pattern stats with
// no pattern, and requires it to lint clean: no family is declared
// without samples.
func TestFreshRegistryLintsClean(t *testing.T) {
	r := metrics.NewRegistry()
	r.Register(metrics.NewPatternStats(0))
	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := lint(&buf); len(problems) > 0 {
		t.Fatalf("fresh exposition has problems:\n%s", strings.Join(problems, "\n"))
	}
}

// TestLintReportsDefects seeds one defect per exposition and requires
// a problem naming it.
func TestLintReportsDefects(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{
			name: "missing TYPE",
			text: "# HELP x_total Things.\nx_total 1\n",
			want: "TYPE emitted 0 times",
		},
		{
			name: "non-monotone buckets",
			text: "# HELP h Latency.\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
				"h_sum 4\nh_count 5\n",
			want: "not monotone",
		},
		{
			name: "+Inf differs from _count",
			text: "# HELP h Latency.\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 4\n" +
				"h_sum 4\nh_count 5\n",
			want: "+Inf bucket 4 != _count 5",
		},
		{
			name: "duplicate HELP",
			text: "# HELP g Level.\n# HELP g Level.\n# TYPE g gauge\ng 1\n",
			want: "HELP emitted 2 times",
		},
		{
			name: "negative counter",
			text: "# HELP c_total Events.\n# TYPE c_total counter\nc_total -1\n",
			want: "negative counter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := lint(strings.NewReader(tc.text))
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Errorf("problems %q, want one containing %q", problems, tc.want)
		})
	}
}
