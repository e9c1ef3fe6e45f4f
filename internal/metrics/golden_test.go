package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// goldenState fills r with a fixed state that exercises every path of
// the encoder: per-endpoint families, per-pattern families with an
// escaped label and an untracked pattern, a family declared twice, an
// odd trailing label key, invalid UTF-8 in a label, non-finite values,
// exponent formatting and labelled histograms.
func goldenState(r *Registry) {
	for i, name := range []string{"estimate", "append", "stats"} {
		ep := r.Endpoint(name)
		for j := 0; j < 5+i; j++ {
			ep.Begin()
			ep.End(time.Duration(j*j+1)*37*time.Microsecond, OK)
		}
		ep.Begin()
		ep.End(3*time.Millisecond, Error)
		ep.Begin()
		ep.End(90*time.Second, Rejected)
	}
	r.Endpoint("estimate").RecordPanic()
	r.Endpoint("append").Begin()
	ps := NewPatternStats(2)
	ps.Observe("//a//b", 3, 5*time.Microsecond)
	ps.Observe("//a//b", 1e7, 2*time.Millisecond)
	ps.Observe(`//x[.="q\"uote"]`, 0.25, time.Microsecond)
	ps.Observe("//overflow", 1, time.Microsecond)
	ps.ObserveQError("//a//b", 1.5)
	ps.ObserveQError("//a//b", 4000)
	r.Register(ps)
	q := NewHistogram(QErrorBounds)
	q.Observe(1.07)
	q.Observe(2e6)
	v := NewHistogram(ValueBounds)
	for _, x := range []float64{0, 1, 1, 3, 1e9} {
		v.Observe(x)
	}
	r.Register(CollectorFunc(func(e *Expo) {
		e.Counter("test_events_total", "Events, with a \\ backslash in the help.", 42)
		e.Gauge("test_level", "A level.", -0.5, "zone", "a\\b\"c\nd", "odd")
		e.Gauge("test_level", "A level.", math.Inf(1), "zone", "\xff\"")
		e.Gauge("test_nan", "Not a number.", math.NaN())
		e.Gauge("test_tiny", "Exponent formatting.", 1.25e-9)
		e.Family("test_multi", "gauge", "Labelled samples.")
		e.Sample("test_multi", 1, "k", "x")
		e.Sample("test_multi", 2e21, "k", "y", "j", "z")
		e.HistogramFamily("test_qerror", "Q-errors.")
		e.HistogramSamples("test_qerror", q)
		e.HistogramFamily("test_value", "Values by kind.")
		e.HistogramSamples("test_value", v, "kind", "a")
		e.HistogramSamples("test_value", v, "kind", "b")
	}))
}

// uptimeLine matches the one sample of the golden state that depends on
// the clock.
var uptimeLine = regexp.MustCompile(`(?m)^xqest_uptime_seconds .*$`)

// TestExpositionGolden pins the text encoding byte for byte:
// testdata/exposition.golden is goldenState rendered by the encoder
// that wrote text while collectors ran, before the gather existed.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	goldenState(r)
	var buf bytes.Buffer
	if err := r.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := uptimeLine.ReplaceAllString(buf.String(), "xqest_uptime_seconds U")
	if w := uptimeLine.ReplaceAllString(string(want), "xqest_uptime_seconds U"); got != w {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
}

// TestJSONMatchesText decodes one gather's JSON encoding and requires
// the same families, sample names, labels and values (NaN included) as
// the text encoding of the same gather.
func TestJSONMatchesText(t *testing.T) {
	r := NewRegistry()
	goldenState(r)
	fams := r.Gather()
	b, err := json.Marshal(fams)
	if err != nil {
		t.Fatal(err)
	}
	var back Families
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Find("test_multi").Samples[1].Labels; strings.Join(got, ",") != "j,z,k,y" {
		t.Errorf("decoded labels %q, want them sorted by key", got)
	}
	var text, again bytes.Buffer
	if err := fams.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	// Decoded labels come back sorted by key: compare each sample line
	// with its labels sorted on both sides.
	if g, w := sortedLines(again.String()), sortedLines(text.String()); g != w {
		t.Errorf("JSON round trip differs from the text encoding:\n%s\nwant\n%s", g, w)
	}
}

// sortedLines rewrites each sample line's label set in key order.
var labelSet = regexp.MustCompile(`\{([^}]*)\}`)

func sortedLines(text string) string {
	return labelSet.ReplaceAllStringFunc(text, func(m string) string {
		parts := strings.Split(m[1:len(m)-1], ",")
		sort.Strings(parts)
		return "{" + strings.Join(parts, ",") + "}"
	})
}

// TestJSONNonFinite: an infinite or NaN sample does not fail the JSON
// encoding; it is spelled as the text format spells it and decodes
// back to the same value.
func TestJSONNonFinite(t *testing.T) {
	fams := Gather(CollectorFunc(func(e *Expo) {
		e.Gauge("g", "help", math.Inf(1), "k", "pos")
		e.Gauge("g", "help", math.Inf(-1), "k", "neg")
		e.Gauge("g", "help", math.NaN(), "k", "nan")
		e.Gauge("g", "help", 2.5, "k", "finite")
	}))
	b, err := json.Marshal(fams)
	if err != nil {
		t.Fatalf("non-finite sample fails the JSON encoding: %v", err)
	}
	for _, want := range []string{`"value":"+Inf"`, `"value":"-Inf"`, `"value":"NaN"`, `"value":2.5`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %s:\n%s", want, b)
		}
	}
	var back Families
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k    string
		want float64
	}{{"pos", math.Inf(1)}, {"neg", math.Inf(-1)}, {"finite", 2.5}} {
		if v, ok := back.Value("g", "k", c.k); !ok || v != c.want {
			t.Errorf("decoded g{k=%q} = %v, %v, want %v", c.k, v, ok, c.want)
		}
	}
	if v, ok := back.Value("g", "k", "nan"); !ok || !math.IsNaN(v) {
		t.Errorf("decoded g{k=\"nan\"} = %v, %v, want NaN", v, ok)
	}
}
