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

// gatherOne gathers h as the unlabeled histogram family "h".
func gatherOne(h *Histogram) Families {
	return Gather(CollectorFunc(func(e *Expo) {
		e.HistogramFamily("h", "test")
		e.HistogramSamples("h", h)
	}))
}

// quantileOf is h's p-quantile read back from its gathered buckets.
func quantileOf(h *Histogram, p float64) float64 { return gatherOne(h).Quantile("h", p) }

// series is one histogram series parsed back from the exposition.
type series struct {
	le         map[string]float64 // cumulative count per le label
	sum, count float64
}

// exposeSeries renders h as the unlabeled family "h" and parses it back.
func exposeSeries(t *testing.T, h *Histogram) series {
	t.Helper()
	var buf bytes.Buffer
	if err := gatherOne(h).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
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

// TestHistogram holds the per-behaviour cases: quantiles, clamping,
// interpolation and exposition.
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
			for _, p := range []float64{0.5, 0.95, 0.99} {
				if q := quantileOf(h, p); q < 512e-6 || q > 2e-3 {
					t.Errorf("q%v = %v, want within a 2x bucket of 1ms", p, q)
				}
			}
			if m := h.Mean(); m <= 100e-6 || m >= 1e-3 {
				t.Errorf("Mean = %v, want between 100µs and 1ms", m)
			}
		}},
		{"latency_empty_and_extremes", func(t *testing.T) {
			h := NewHistogram(LatencyBounds)
			if h.Count() != 0 || h.Mean() != 0 || !math.IsNaN(quantileOf(h, 0.5)) {
				t.Errorf("empty: count %d, mean %v, p50 %v, want 0, 0 and NaN", h.Count(), h.Mean(), quantileOf(h, 0.5))
			}
			// Out-of-range observations clamp to 0 or land in +Inf
			// instead of panicking.
			h.Observe(-1)
			h.Observe(1e-9)
			h.Observe(600)
			if h.Count() != 3 || h.Sum() != 600+1e-9 {
				t.Errorf("count %d, sum %v, want 3 and 600+1e-9", h.Count(), h.Sum())
			}
			// A rank in the +Inf bucket reads the highest finite bound.
			if p99 := quantileOf(h, 0.99); p99 != 67.108864 {
				t.Errorf("p99 = %v, want the top bound 67.108864", p99)
			}
			if got := exposeSeries(t, h).le["67.108864"]; got != 2 {
				t.Errorf("top bound holds %v, want 2 (600s is only in +Inf)", got)
			}
		}},
		{"value_basics", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			if h.Count() != 0 {
				t.Fatalf("empty count %d", h.Count())
			}
			for i := 0; i < 100; i++ {
				h.Observe(8)
			}
			h.Observe(64)
			if h.Count() != 101 {
				t.Fatalf("count=%d, want 101", h.Count())
			}
			if want := float64(100*8+64) / 101; h.Mean() != want {
				t.Fatalf("mean %.3f, want %.3f", h.Mean(), want)
			}
			// 8 sits on a bound, so p50 lands in the (4, 8] bucket.
			if p50 := quantileOf(h, 0.5); p50 <= 4 || p50 > 8 {
				t.Fatalf("p50 %.3f outside (4, 8]", p50)
			}
			if p999 := quantileOf(h, 0.999); p999 <= 32 || p999 > 64 {
				t.Fatalf("p99.9 %.3f outside (32, 64]", p999)
			}
		}},
		{"value_clamps", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			h.Observe(-5) // clamps to zero, still counted
			h.Observe(1 << 30)
			if h.Count() != 2 || h.Sum() != 1<<30 {
				t.Fatalf("count %d sum %v, want 2 and 1<<30", h.Count(), h.Sum())
			}
		}},
		{"value_edges", func(t *testing.T) {
			h := NewHistogram(ValueBounds)
			h.Observe(1)
			// The quantiles interpolate inside the first bucket, (0, 1],
			// as histogram_quantile does.
			if p50, p99 := quantileOf(h, 0.5), quantileOf(h, 0.99); p50 != 0.5 || p99 != 0.99 {
				t.Errorf("single-sample p50, p99 = %v, %v, want 0.5 and 0.99", p50, p99)
			}
			// Beyond the top bound: +Inf, read as the top finite bound.
			h.Observe(1 << 30)
			if p99 := quantileOf(h, 0.99); p99 != 1<<20 {
				t.Errorf("p99 = %v, want the top bound 1<<20", p99)
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
			p50, p90, p95, p99 := quantileOf(h, 0.5), quantileOf(h, 0.9), quantileOf(h, 0.95), quantileOf(h, 0.99)
			if p50 < 0 || p50 > p90 || p90 > p95 || p95 > p99 || p99 > 100 {
				t.Errorf("quantiles %v %v %v %v, want ordered and at most 100", p50, p90, p95, p99)
			}
		}},
		{"qerror_interpolation", func(t *testing.T) {
			h := NewHistogram([]float64{1, 2, 4})
			for i := 0; i < 10; i++ {
				h.Observe(1.5)
			}
			if p50, p99 := quantileOf(h, 0.5), quantileOf(h, 0.99); p50 < 1 || p50 > 2 || p99 > 2 {
				t.Errorf("p50, p99 = %v, %v, want both within (1, 2]", p50, p99)
			}
			// Values beyond the last bound land in +Inf, read as the
			// last bound.
			h2 := NewHistogram([]float64{1})
			h2.Observe(50)
			if p99 := quantileOf(h2, 0.99); p99 != 1 {
				t.Errorf("+Inf bucket quantile %v, want the last bound 1", p99)
			}
			// The rank is placed from the cumulative count below its
			// bucket: two observations in (0, 1] and two in (1, 2] put
			// q0.75 halfway through (1, 2].
			h3 := NewHistogram([]float64{1, 2, 4})
			for _, v := range []float64{1, 1, 1.5, 1.5} {
				h3.Observe(v)
			}
			if q := quantileOf(h3, 0.75); q != 1.5 {
				t.Errorf("q0.75 = %v, want 1.5", q)
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
	if h.Count() != workers*each || h.Sum() != each*workers*(workers+1)/2 {
		t.Errorf("count %d sum %v, want %d and %d", h.Count(), h.Sum(), workers*each, each*workers*(workers+1)/2)
	}
}

func TestFloatHistogramConcurrent(t *testing.T) { checkConcurrentObserve(t, QErrorBounds) }

func TestValueHistogramConcurrent(t *testing.T) { checkConcurrentObserve(t, ValueBounds) }

// midBucket returns a value strictly inside bucket k+1, (b[k], b[k+1]).
func midBucket(b []float64, k int) float64 { return (b[k] + b[k+1]) / 2 }

// Percentile edge cases the serving dashboards rely on, on each bound
// set: a single sample dominates every quantile, a one-bucket
// distribution interpolates within that bucket, and a rank in the +Inf
// bucket reads the highest finite bound.

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
		if h.Count() != 1 || h.Mean() != v {
			t.Errorf("%s: count %d, mean %v, want 1 and %v", bs.name, h.Count(), h.Mean(), v)
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
		if p50 < bs.bounds[k] || p50 > bs.bounds[k+1] || p99 < p50 || p99 > bs.bounds[k+1] {
			t.Errorf("%s: raw p50 %v, p99 %v, want inside (%v, %v] and p99 >= p50", bs.name, p50, p99, bs.bounds[k], bs.bounds[k+1])
		}
	}
}

func TestQuantileInfBucketReadsTopBound(t *testing.T) {
	for _, bs := range boundSets {
		// 999 low, 1 far beyond the last bound: the low quantiles stay
		// in the low sample's bucket, and a rank in the +Inf bucket
		// reads the highest finite bound, not the observation.
		top := bs.bounds[len(bs.bounds)-1]
		low := midBucket(bs.bounds, 1)
		h := NewHistogram(bs.bounds)
		for i := 0; i < 999; i++ {
			h.Observe(low)
		}
		h.Observe(top * 1e3)
		if p99 := quantileOf(h, 0.99); p99 < bs.bounds[1] || p99 > bs.bounds[2] {
			t.Errorf("%s: p99 = %v, want within (%v, %v]", bs.name, p99, bs.bounds[1], bs.bounds[2])
		}
		if q := quantileOf(h, 0.9999); q != top {
			t.Errorf("%s: q0.9999 = %v, want the top bound %v", bs.name, q, top)
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
