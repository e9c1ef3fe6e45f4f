package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// boundSets are the package's three bound sets, for cases that must
// hold on each.
var boundSets = []struct {
	name   string
	bounds []float64
}{
	{"latency", LatencyBounds},
	{"value", ValueBounds},
	{"qerror", QErrorBounds},
}

// quantileOf is the raw interpolated p-quantile, before the Summary's
// max cap.
func quantileOf(h *Histogram, p float64) float64 {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return h.quantile(counts, total, p, h.Summary().Max)
}

// series is one histogram series parsed back from the exposition.
type series struct {
	le         map[string]float64 // cumulative count per le label
	sum, count float64
}

// exposeSeries renders h as the unlabeled family "h" and parses it back.
func exposeSeries(t *testing.T, h *Histogram) series {
	t.Helper()
	var buf bytes.Buffer
	e := NewExpo(&buf)
	e.HistogramFamily("h", "test")
	e.HistogramSamples("h", h)
	s := series{le: map[string]float64{}}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		switch name := line[:sp]; {
		case strings.HasPrefix(name, `h_bucket{le="`):
			s.le[strings.TrimSuffix(strings.TrimPrefix(name, `h_bucket{le="`), `"}`)] = v
		case name == "h_sum":
			s.sum = v
		case name == "h_count":
			s.count = v
		default:
			t.Fatalf("unexpected sample line %q", line)
		}
	}
	return s
}

// TestHistogramLEMatchesPrometheus is the exposition contract over all
// three bound sets: each `_bucket{le="b"}` counts exactly the
// observations <= b, the +Inf bucket equals `_count`, and `_sum` is the
// sum. Observations sit at, just below and just above every bound, and
// beyond the top bound.
func TestHistogramLEMatchesPrometheus(t *testing.T) {
	const quickSeed = 1
	for _, bs := range boundSets {
		var pool []float64
		for _, b := range bs.bounds {
			pool = append(pool, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
		top := bs.bounds[len(bs.bounds)-1]
		pool = append(pool, 0, top*1.5, top*1e3)
		f := func(picks []uint16) bool {
			h := NewHistogram(bs.bounds)
			var obs []float64
			var sum float64
			for _, p := range picks {
				v := pool[int(p)%len(pool)]
				h.Observe(v)
				obs = append(obs, v)
				sum += v
			}
			got := exposeSeries(t, h)
			for _, b := range bs.bounds {
				var want float64
				for _, v := range obs {
					if v <= b {
						want++
					}
				}
				le := strconv.FormatFloat(b, 'g', -1, 64)
				if got.le[le] != want {
					t.Logf("%s: le=%q holds %v, want %v", bs.name, le, got.le[le], want)
					return false
				}
			}
			n := float64(len(obs))
			return got.le["+Inf"] == n && got.count == n && got.sum == sum && len(got.le) == len(bs.bounds)+1
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(quickSeed))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s bounds (quick seed %d): %v", bs.name, quickSeed, err)
		}
	}
}

// TestHistogramBoundLabels pins the `le` label values each bound set
// exposes.
func TestHistogramBoundLabels(t *testing.T) {
	for _, c := range []struct {
		bounds      []float64
		n           int
		first, last string
	}{
		{LatencyBounds, 27, "1e-06", "67.108864"},
		{ValueBounds, 21, "1", "1.048576e+06"},
		{QErrorBounds, 22, "1", "1e+06"},
	} {
		label := func(i int) string { return strconv.FormatFloat(c.bounds[i], 'g', -1, 64) }
		if len(c.bounds) != c.n || label(0) != c.first || label(c.n-1) != c.last {
			t.Errorf("bounds %v: want %d bounds from %s to %s", c.bounds, c.n, c.first, c.last)
		}
	}
}

// TestHistogram holds the per-behaviour cases: summaries, clamping,
// interpolation, concurrency and exposition.
func TestHistogram(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"latency_quantiles", func(t *testing.T) {
			h := NewHistogram(LatencyBounds)
			// 100 observations at 10µs, 900 at 1ms: p50 and p95 land in
			// the 1ms bucket, p05 in the 10µs one.
			for i := 0; i < 100; i++ {
				h.Observe(10e-6)
			}
			for i := 0; i < 900; i++ {
				h.Observe(1e-3)
			}
			if got := h.Count(); got != 1000 {
				t.Fatalf("Count = %d, want 1000", got)
			}
			if p05 := quantileOf(h, 0.05); p05 < 8e-6 || p05 > 16e-6 {
				t.Errorf("p05 = %v, want within the 8-16µs bucket", p05)
			}
			s := h.Summary()
			for _, q := range []float64{s.P50, s.P95} {
				if q < 512e-6 || q > 2e-3 {
					t.Errorf("quantile %v, want within a 2x bucket of 1ms", q)
				}
			}
			if s.Max != 1e-3 || s.P99 > s.Max {
				t.Errorf("Max = %v, P99 = %v, want max 1ms and P99 <= max", s.Max, s.P99)
			}
			if s.Mean <= 100e-6 || s.Mean >= 1e-3 {
				t.Errorf("Mean = %v, want between 100µs and 1ms", s.Mean)
			}
		}},
		{"latency_empty_and_extremes", func(t *testing.T) {
			h := NewHistogram(LatencyBounds)
			if s := h.Summary(); s != (Summary{}) {
				t.Errorf("empty summary = %+v, want zeros", s)
			}
			// Out-of-range observations clamp to 0 or land in +Inf
			// instead of panicking.
			h.Observe(-1)
			h.Observe(1e-9)
			h.Observe(600)
			s := h.Summary()
			if s.Count != 3 || s.Max != 600 || s.P99 > 600 {
				t.Errorf("summary = %+v, want count 3, max 600 and P99 <= max", s)
			}
			if got := exposeSeries(t, h).le["67.108864"]; got != 2 {
				t.Errorf("top bound holds %v, want 2 (600s is only in +Inf)", got)
			}
		}},
		{"value_basics", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			if s := h.Summary(); s != (Summary{}) {
				t.Fatalf("empty summary: %+v", s)
			}
			for i := 0; i < 100; i++ {
				h.Observe(8)
			}
			h.Observe(64)
			s := h.Summary()
			if s.Count != 101 || s.Max != 64 {
				t.Fatalf("count=%d max=%v, want 101 and 64", s.Count, s.Max)
			}
			if want := float64(100*8+64) / 101; s.Mean != want {
				t.Fatalf("mean %.3f, want %.3f", s.Mean, want)
			}
			// 8 sits on a bound, so p50 lands in the (4, 8] bucket.
			if s.P50 <= 4 || s.P50 > 8 {
				t.Fatalf("p50 %.3f outside (4, 8]", s.P50)
			}
			if s.P99 > s.Max {
				t.Fatalf("p99 %.3f exceeds max %v", s.P99, s.Max)
			}
		}},
		{"value_clamps", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			h.Observe(-5) // clamps to zero, still counted
			h.Observe(1 << 30)
			s := h.Summary()
			if s.Count != 2 || s.Max != 1<<30 || h.Sum() != 1<<30 {
				t.Fatalf("summary %+v sum %v, want count 2 and max and sum 1<<30", s, h.Sum())
			}
		}},
		{"value_edges", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			h.Observe(1)
			s := h.Summary()
			// The quantiles interpolate inside (0, 1] and are clamped to
			// the observed min, so every one reads 1.
			if s.Count != 1 || s.Max != 1 || s.P50 != 1 || s.P99 != 1 {
				t.Errorf("single-sample summary = %+v, want count, max and quantiles 1", s)
			}
			// Beyond the top bound: +Inf, and the max is the genuine
			// observation.
			h.Observe(1 << 30)
			if s := h.Summary(); s.Max != 1<<30 {
				t.Errorf("Max = %v, want 1<<30", s.Max)
			}
		}},
		{"qerror_basics", func(t *testing.T) {
			h := NewHistogram(QErrorBounds)
			h.Observe(1)
			h.Observe(1.5)
			h.Observe(100)
			h.Observe(math.NaN()) // dropped
			h.Observe(-3)         // clamps to 0
			if n := h.Count(); n != 4 {
				t.Errorf("count = %d, want 4 (NaN dropped)", n)
			}
			if sum := h.Sum(); sum != 102.5 {
				t.Errorf("sum = %v, want 102.5", sum)
			}
			s := h.Summary()
			if s.Max != 100 || s.P50 < 0 || s.P50 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
				t.Errorf("summary = %+v, want max 100 and ordered quantiles", s)
			}
		}},
		{"qerror_interpolation", func(t *testing.T) {
			h := NewHistogram([]float64{1, 2, 4})
			for i := 0; i < 10; i++ {
				h.Observe(1.5)
			}
			if s := h.Summary(); s.P50 < 1 || s.P50 > 2 || s.P99 > s.Max {
				t.Errorf("summary = %+v, want p50 within (1, 2] and p99 <= max", s)
			}
			// Values beyond the last bound land in +Inf, capped by max.
			h2 := NewHistogram([]float64{1})
			h2.Observe(50)
			if s := h2.Summary(); s.P99 > 50 {
				t.Errorf("+Inf bucket quantile %v exceeds observed max 50", s.P99)
			}
		}},
		{"exposition", func(t *testing.T) {
			h := NewHistogram([]float64{1, 10})
			h.Observe(0.5)
			h.Observe(5)
			h.Observe(100)
			s := exposeSeries(t, h)
			if s.le["1"] != 1 || s.le["10"] != 2 || s.le["+Inf"] != 3 || s.sum != 105.5 || s.count != 3 {
				t.Errorf("series = %+v, want le 1:1, 10:2, +Inf:3, sum 105.5, count 3", s)
			}
		}},
		{"latency_exposition_monotone", func(t *testing.T) {
			h := NewHistogram(LatencyBounds)
			for _, d := range []float64{1e-6, 50e-6, 1e-3, 20e-3, 1} {
				h.Observe(d)
			}
			s := exposeSeries(t, h)
			prev := -1.0
			for _, b := range LatencyBounds {
				v := s.le[strconv.FormatFloat(b, 'g', -1, 64)]
				if v < prev {
					t.Errorf("bucket counts not monotone: %v after %v at le=%v", v, prev, b)
				}
				prev = v
			}
			if s.le["+Inf"] != 5 || s.count != 5 {
				t.Errorf("+Inf bucket = %v, count = %v, want 5 and 5", s.le["+Inf"], s.count)
			}
		}},
	} {
		t.Run(c.name, c.run)
	}
}

// checkConcurrentObserve has eight goroutines observe 1..8 a thousand
// times each into one histogram over bounds; no observation may be lost.
func checkConcurrentObserve(t *testing.T, bounds []float64) {
	t.Helper()
	h := NewHistogram(bounds)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	s := h.Summary()
	if s.Count != workers*each || s.Max != workers || h.Sum() != each*workers*(workers+1)/2 {
		t.Errorf("summary %+v sum %v, want count %d, max %d, sum %d",
			s, h.Sum(), workers*each, workers, each*workers*(workers+1)/2)
	}
}

func TestFloatHistogramConcurrent(t *testing.T) { checkConcurrentObserve(t, QErrorBounds) }

func TestValueHistogramConcurrent(t *testing.T) { checkConcurrentObserve(t, ValueBounds) }

// midBucket returns a value strictly inside bucket k+1, (b[k], b[k+1]).
func midBucket(b []float64, k int) float64 { return (b[k] + b[k+1]) / 2 }

// Percentile edge cases the serving dashboards rely on, on each bound
// set: a single sample dominates every quantile, a one-bucket
// distribution interpolates within that bucket, and the tracked max
// caps interpolation so a wide bucket cannot inflate p99 past anything
// actually observed.

func TestQuantileSingleSample(t *testing.T) {
	for _, bs := range boundSets {
		k := len(bs.bounds) / 2
		v := midBucket(bs.bounds, k)
		h := NewHistogram(bs.bounds)
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := quantileOf(h, q); got < bs.bounds[k] || got > bs.bounds[k+1] {
				t.Errorf("%s: raw q%v = %v, want within (%v, %v]", bs.name, q, got, bs.bounds[k], bs.bounds[k+1])
			}
		}
		s := h.Summary()
		if s.Count != 1 || s.Max != v || s.Mean != v || s.P50 > v || s.P95 > v || s.P99 > v {
			t.Errorf("%s: summary = %+v, want count 1, max/mean %v and quantiles <= max", bs.name, s, v)
		}
	}
}

func TestQuantileAllInOneBucket(t *testing.T) {
	for _, bs := range boundSets {
		k := len(bs.bounds) / 2
		v := midBucket(bs.bounds, k)
		h := NewHistogram(bs.bounds)
		for i := 0; i < 1000; i++ {
			h.Observe(v)
		}
		p50, p99 := quantileOf(h, 0.5), quantileOf(h, 0.99)
		if p50 < bs.bounds[k] || p50 > bs.bounds[k+1] || p99 < p50 {
			t.Errorf("%s: raw p50 %v, p99 %v, want inside (%v, %v] and p99 >= p50", bs.name, p50, p99, bs.bounds[k], bs.bounds[k+1])
		}
		if s := h.Summary(); s.P99 > v {
			t.Errorf("%s: summary P99 = %v exceeds the tracked max %v", bs.name, s.P99, v)
		}
	}
}

func TestQuantileMaxCapClamping(t *testing.T) {
	for _, bs := range boundSets {
		// 999 low, 1 high: p99.99 interpolates inside the high sample's
		// bucket, whose upper bound is above the observed max — the
		// tracked max must clamp it.
		low, high := midBucket(bs.bounds, 1), midBucket(bs.bounds, len(bs.bounds)-2)
		h := NewHistogram(bs.bounds)
		for i := 0; i < 999; i++ {
			h.Observe(low)
		}
		h.Observe(high)
		s := h.Summary()
		if s.Max != high || s.P99 > s.Max {
			t.Errorf("%s: Max = %v, P99 = %v, want max %v and P99 clamped to it", bs.name, s.Max, s.P99, high)
		}
		if raw := quantileOf(h, 0.9999); raw <= s.Max {
			t.Errorf("%s: raw q0.9999 = %v, want above the max %v (the clamp must matter)", bs.name, raw, s.Max)
		}
	}
}

// TestHistogramObserveAllocs pins Observe, which runs three times on
// every /estimate request, at zero allocations on each bound set.
func TestHistogramObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, bs := range boundSets {
		h := NewHistogram(bs.bounds)
		v := 0.0
		if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 0.37 }); n != 0 {
			t.Errorf("%s: Observe allocates %v times, want 0", bs.name, n)
		}
	}
}
