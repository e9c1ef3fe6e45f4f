package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPatternStatsTracksAndBounds(t *testing.T) {
	p := NewPatternStats(3)
	for i := 0; i < 5; i++ {
		p.Observe("//a//b", 10, time.Millisecond)
	}
	p.Observe("//a//c", 20, time.Millisecond)
	p.Observe("//a//d", 30, time.Millisecond)
	// The fourth distinct pattern exceeds the cap: counted as untracked.
	p.Observe("//a//e", 40, time.Millisecond)
	p.Observe("//a//e", 40, time.Millisecond)

	if got := p.Untracked(); got != 2 {
		t.Errorf("Untracked = %d, want 2", got)
	}
	snap := p.Snapshot(10)
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	if snap[0].Pattern != "//a//b" || snap[0].Requests != 5 {
		t.Errorf("top pattern = %+v, want //a//b with 5 requests", snap[0])
	}
	if snap[0].Estimate.Count != 5 || snap[0].Estimate.P50 < 8 || snap[0].Estimate.P50 > 16 {
		t.Errorf("estimate digest = %+v, want p50 near 10", snap[0].Estimate)
	}
	if snap[0].Latency.Count != 5 {
		t.Errorf("latency count = %d, want 5", snap[0].Latency.Count)
	}
	// topK smaller than the tracked set truncates.
	if got := len(p.Snapshot(2)); got != 2 {
		t.Errorf("Snapshot(2) len = %d, want 2", got)
	}
}

func TestPatternStatsNormalization(t *testing.T) {
	p := NewPatternStats(4)
	p.Observe("  //a//b ", 1, time.Microsecond)
	p.Observe("//a//b", 1, time.Microsecond)
	p.Observe("//a \t //b", 1, time.Microsecond)
	snap := p.Snapshot(10)
	if len(snap) != 2 {
		t.Fatalf("Snapshot = %+v, want 2 normalized patterns", snap)
	}
	if snap[0].Pattern != "//a//b" || snap[0].Requests != 2 {
		t.Errorf("normalized top = %+v, want //a//b ×2", snap[0])
	}
	if snap[1].Pattern != "//a //b" {
		t.Errorf("whitespace-collapsed = %q, want %q", snap[1].Pattern, "//a //b")
	}
}

func TestPatternStatsCollect(t *testing.T) {
	r := NewRegistry()
	p := NewPatternStats(0)
	p.Observe("//x//y", 7, 3*time.Millisecond)
	r.Register(p)
	var buf bytes.Buffer
	if err := r.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`xqest_pattern_requests_total{pattern="//x//y"} 1`,
		`xqest_pattern_latency_seconds_count{pattern="//x//y"} 1`,
		"xqest_pattern_untracked_requests_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestNormalizePattern(t *testing.T) {
	cases := map[string]string{
		"//a//b":         "//a//b",
		" //a//b\t":      "//a//b",
		"//a   //b":      "//a //b",
		"//a\n//b[.//c]": "//a //b[.//c]",
	}
	for in, want := range cases {
		if got := NormalizePattern(in); got != want {
			t.Errorf("NormalizePattern(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPatternStatsQError(t *testing.T) {
	p := NewPatternStats(2)
	p.Observe("//a//b", 10, 0)
	p.ObserveQError("//a//b", 1.5)
	p.ObserveQError("//never//seen", 9) // untracked: dropped silently
	snap := p.Snapshot(0)
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(snap))
	}
	if snap[0].QError == nil || snap[0].QError.Count != 1 || snap[0].QError.Max != 1.5 {
		t.Errorf("pattern q-error digest = %+v", snap[0].QError)
	}

	// Without any verified pattern the per-pattern q-error families are
	// not declared (no sample-less families); with one they are.
	empty := NewPatternStats(2)
	empty.Observe("//a//b", 10, 0)
	var buf bytes.Buffer
	empty.Collect(NewExpo(&buf))
	if strings.Contains(buf.String(), "xqest_pattern_qerror") {
		t.Errorf("qerror families declared without verified observations:\n%s", buf.String())
	}
	buf.Reset()
	p.Collect(NewExpo(&buf))
	out := buf.String()
	if !strings.Contains(out, `xqest_pattern_qerror_count{pattern="//a//b"} 1`) {
		t.Errorf("missing per-pattern qerror count:\n%s", out)
	}
	if !strings.Contains(out, `xqest_pattern_qerror_mean{pattern="//a//b"} 1.5`) {
		t.Errorf("missing per-pattern qerror mean:\n%s", out)
	}
}
