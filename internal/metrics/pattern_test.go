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
	fams := Gather(p)
	if f := fams.Find("xqest_pattern_requests_total"); f == nil || len(f.Samples) != 3 {
		t.Fatalf("requests family = %+v, want 3 tracked patterns", f)
	}
	ab := []string{"pattern", "//a//b"}
	if v, _ := fams.Value("xqest_pattern_requests_total", ab...); v != 5 {
		t.Errorf("//a//b requests = %v, want 5", v)
	}
	if v, _ := fams.Value("xqest_pattern_estimate_mean", ab...); v != 10 {
		t.Errorf("//a//b estimate mean = %v, want 10", v)
	}
	if v, _ := fams.Value("xqest_pattern_latency_seconds_count", ab...); v != 5 {
		t.Errorf("//a//b latency count = %v, want 5", v)
	}
	if v, _ := fams.Value("xqest_pattern_untracked_requests_total"); v != 2 {
		t.Errorf("untracked requests = %v, want 2", v)
	}
}

func TestPatternStatsNormalization(t *testing.T) {
	p := NewPatternStats(4)
	p.Observe("  //a//b ", 1, time.Microsecond)
	p.Observe("//a//b", 1, time.Microsecond)
	p.Observe("//a \t //b", 1, time.Microsecond)
	f := Gather(p).Find("xqest_pattern_requests_total")
	if f == nil || len(f.Samples) != 2 {
		t.Fatalf("requests family = %+v, want 2 normalized patterns", f)
	}
	if s := f.Samples[1]; s.Label("pattern") != "//a//b" || s.Value != 2 {
		t.Errorf("normalized = %+v, want //a//b ×2", s)
	}
	if got := f.Samples[0].Label("pattern"); got != "//a //b" {
		t.Errorf("whitespace-collapsed = %q, want %q", got, "//a //b")
	}
}

func TestPatternStatsCollect(t *testing.T) {
	r := NewRegistry()
	p := NewPatternStats(0)
	p.Observe("//x//y", 7, 3*time.Millisecond)
	r.Register(p)
	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
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
	fams := Gather(p)
	if f := fams.Find("xqest_pattern_qerror_count"); f == nil || len(f.Samples) != 1 {
		t.Fatalf("qerror family = %+v, want one verified pattern", f)
	}

	// Without any verified pattern the per-pattern q-error families are
	// not declared (no sample-less families); with one they are.
	empty := NewPatternStats(2)
	empty.Observe("//a//b", 10, 0)
	var buf bytes.Buffer
	if err := Gather(empty).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "xqest_pattern_qerror") {
		t.Errorf("qerror families declared without verified observations:\n%s", buf.String())
	}
	buf.Reset()
	if err := fams.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `xqest_pattern_qerror_count{pattern="//a//b"} 1`) {
		t.Errorf("missing per-pattern qerror count:\n%s", out)
	}
	if !strings.Contains(out, `xqest_pattern_qerror_mean{pattern="//a//b"} 1.5`) {
		t.Errorf("missing per-pattern qerror mean:\n%s", out)
	}
}
