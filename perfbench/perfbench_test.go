package main

import (
	"bytes"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"xmlest"
	"xmlest/internal/datagen"
	"xmlest/internal/server"
	"xmlest/internal/xmltree"
)

func TestPercentileNearestRankAndTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // unsorted on purpose
		}
		return v
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		tailOK bool
	}{
		{100, 0.50, 50, true},
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond: exactly minTail
		{999, 0.99, 990, false}, // only 9 beyond
		{20, 0.50, 10, true},    // 10 beyond the median
		{19, 0.50, 10, false},   // 9 beyond
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.tailOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.tailOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported as usable")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSummarizeMediansWindows(t *testing.T) {
	var ws []window
	for i, c := range []struct {
		ops, other int
		cpu        time.Duration
		lat        []float64
	}{
		{10, 0, 10 * time.Microsecond, []float64{1, 2, 3}},
		{30, 10, 60 * time.Microsecond, []float64{4, 5, 6}},
		{20, 0, 20 * time.Microsecond, []float64{7, 8, 9}},
	} {
		w := window{ops: c.ops, other: c.other, wall: time.Second, cpu: c.cpu}
		w.closeWindow(c.lat)
		ws = append(ws, w)
		if w.p50 != c.lat[1] {
			t.Errorf("window %d p50 = %v, want %v", i, w.p50, c.lat[1])
		}
	}
	ws = append(ws, window{}) // an empty window is skipped
	s := summarize(ws)
	if s.opsPerSec != 20 || s.windows != 3 || s.samples != 60 || s.minWindow != 10 {
		t.Errorf("ops/s = %v over %d windows, %d samples (min %d)", s.opsPerSec, s.windows, s.samples, s.minWindow)
	}
	if s.p50us != 5 || s.p99us != 6 || s.tailOK {
		t.Errorf("median window p50 %v p99 %v tailOK %v; want 5, 6, false", s.p50us, s.p99us, s.tailOK)
	}
	if s.cpuPerOp != 90.0/70 { // the run's CPU over all 70 operations
		t.Errorf("cpu/op = %v, want %v", s.cpuPerOp, 90.0/70)
	}
}

func TestParseExposition(t *testing.T) {
	text := `# HELP xqest_a A counter.
# TYPE xqest_a counter
xqest_a 3
xqest_b{endpoint="estimate",le="0.5"} 7.5

xqest_c 1e+06
`
	got, err := parseExposition([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := counters{"xqest_a": 3, `xqest_b{endpoint="estimate",le="0.5"}`: 7.5, "xqest_c": 1e6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	if _, err := parseExposition([]byte("xqest_a notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
	if d := want.delta(counters{"xqest_a": 5}, "xqest_a"); d != 2 {
		t.Errorf("delta = %v, want 2", d)
	}
	if d := want.delta(counters{}, "missing"); d != 0 {
		t.Errorf("delta of a missing series = %v, want 0", d)
	}
}

// smallServer serves a small DBLP corpus in-process with the
// benchmark's configuration.
func smallServer(t *testing.T) *served {
	t.Helper()
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, Scale: 0.02})
	db := xmlest.FromCatalog(datagen.DBLPCatalog(tree))
	srv, err := server.New(db, serverConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	db.MergeSummaries()
	return &served{db: db, srv: srv}
}

func TestScrapeCounterDeltasLive(t *testing.T) {
	s := smallServer(t)
	h := s.srv.Handler()
	ts, err := loadTwigs(7, s.db, 4)
	if err != nil {
		t.Fatal(err)
	}
	calls, batches := estimateCalls(ts.twigs, 1)
	before, err := scrape(h)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	load := &estimateLoad{h: h, calls: calls, batches: batches, twigs: ts, rep: rep}
	for i := 0; i < 3*len(calls); i++ {
		load.one()
	}
	after, err := scrape(h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted != 3*len(calls) {
		t.Fatalf("checks: %d of %d failed: %v", rep.failed, rep.attempted, rep.problems)
	}
	// Each distinct pattern is compiled once by the server's estimator
	// (a single shard prepares by fan-out); repeats hit its cache, and a
	// traced (sampled) request may compile once more on its snapshot.
	fanout := before.delta(after, "xqest_prepare_fanout_total")
	if fanout < float64(len(calls)) || fanout >= float64(3*len(calls)) {
		t.Errorf("prepare fan-out delta = %v for %d distinct patterns requested 3 times each", fanout, len(calls))
	}
	if d := before.delta(after, "xqest_wal_fsyncs_total"); d != 0 {
		t.Errorf("in-memory database fsynced %v times", d)
	}
}

func TestCheckEstimateCatchesWrongResponses(t *testing.T) {
	s := smallServer(t)
	ts, err := loadTwigs(11, s.db, 3)
	if err != nil {
		t.Fatal(err)
	}
	calls, batches := estimateCalls(ts.twigs, 2) // batched: 3 twigs cycled in pairs
	for i, c := range calls {
		status, body := c.do(s.srv.Handler())
		if err := checkEstimate(status, body, batches[i], ts); err != nil {
			t.Fatalf("correct response rejected: %v", err)
		}
		body = append([]byte(nil), body...)
		wrong := *ts
		wrong.expected = map[string]float64{}
		for k, v := range ts.expected {
			wrong.expected[k] = math.Nextafter(v, math.Inf(1))
		}
		if checkEstimate(status, body, batches[i], &wrong) == nil {
			t.Error("estimate one ulp away from the reference accepted")
		}
		if checkEstimate(http.StatusBadRequest, body, batches[i], ts) == nil {
			t.Error("non-200 status accepted")
		}
	}
	neg := []byte(`{"version":1,"results":[{"pattern":"//a","estimate":-1}]}`)
	if checkEstimate(http.StatusOK, neg, []string{"//a"}, &twigSet{}) == nil {
		t.Error("negative estimate accepted")
	}
}

func TestSamplerDeterministicAndPositive(t *testing.T) {
	for _, c := range []struct {
		name string
		tree *xmltree.Tree
		n    int
	}{
		{"dblp", datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 5, Scale: 0.02}), 24},
		{"hier", datagen.GenerateHier(datagen.HierConfig{Seed: 5, Scale: 1}), 48},
	} {
		t.Run(c.name, func(t *testing.T) {
			var db *xmlest.Database
			if c.name == "dblp" {
				db = xmlest.FromCatalog(datagen.DBLPCatalog(c.tree))
			} else {
				db = xmlest.FromCatalog(datagen.HierCatalog(c.tree))
			}
			a, err := newSampler(newRand(42), db.Catalog()).sample(c.n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := newSampler(newRand(42), db.Catalog()).sample(c.n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different twigs:\n%v\n%v", a, b)
			}
			other, err := newSampler(newRand(43), db.Catalog()).sample(c.n)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, other) {
				t.Error("different seeds gave identical twig sets")
			}
			seen := map[string]bool{}
			for _, tw := range a {
				if seen[tw] {
					t.Errorf("duplicate twig %s", tw)
				}
				seen[tw] = true
				n, err := db.Count(tw)
				if err != nil {
					t.Fatalf("count %s: %v", tw, err)
				}
				if n <= 0 {
					t.Errorf("twig %s has exact count %v", tw, n)
				}
			}
		})
	}
}

// fakeClock advances only when slept on or when an operation runs.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	o := &openLoop{every: 10 * time.Millisecond, clk: clk}
	// Operation 1 stalls for 35ms; the rest take 1ms.
	cost := []time.Duration{time.Millisecond, 35 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	n := o.run(func() bool { return o.mark() == len(cost) }, func(k int) { clk.now = clk.now.Add(cost[k]) })
	if n != len(cost) {
		t.Fatalf("issued %d operations, want %d", n, len(cost))
	}
	late, latency := o.since(0)
	// Due at 0,10,20,30,40,50. Op 1 runs 10..45, so op 2 (due 20) is sent
	// at 45 (25 late), op 3 (due 30) at 46 (16 late), op 4 (due 40) at 47
	// (7 late), op 5 (due 50) on time.
	wantLate := []float64{0, 0, 25, 16, 7, 0}
	wantLatency := []float64{1, 35, 26, 17, 8, 1}
	if !reflect.DeepEqual(late, wantLate) || !reflect.DeepEqual(latency, wantLatency) {
		t.Errorf("late %v latency %v; want %v %v", late, latency, wantLate, wantLatency)
	}
	if _, tail := o.since(4); len(tail) != 2 {
		t.Errorf("since(4) returned %d samples, want 2", len(tail))
	}
}

func TestLadderSelfTime(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	add := func(id, parent int, name string, start, end int) int {
		seq := tr.begin(id, parent, name)
		tr.spans[seq-1].start, tr.spans[seq-1].end = at(start), at(end)
		return seq
	}
	// Input 1: the server span takes 10ms, its facade call 7ms, and the
	// facade's two children 2ms and 3ms, timed one after another.
	srv := add(1, 0, "server", 0, 10)
	fac := add(1, srv, "facade", 10, 17)
	add(1, fac, "core", 17, 19)
	add(1, fac, "core", 19, 22)
	// Input 2: a child slower than its parent gives a negative self time.
	srv2 := add(2, 0, "server", 30, 34)
	add(2, srv2, "facade", 34, 40)

	if got, want := tr.selfTimes("server"), []time.Duration{3 * time.Millisecond, -2 * time.Millisecond}; !reflect.DeepEqual(got, want) {
		t.Errorf("server self times %v, want %v", got, want)
	}
	if got, want := tr.selfTimes("facade"), []time.Duration{2 * time.Millisecond, 6 * time.Millisecond}; !reflect.DeepEqual(got, want) {
		t.Errorf("facade self times %v, want %v", got, want)
	}
	if got := medianOf(tr.durations("core"), time.Millisecond); got != 2.5 {
		t.Errorf("median core duration %v ms, want 2.5", got)
	}
	var nested int
	outer := tr.time(3, 0, "outer", func() { nested = tr.time(3, 0, "inner", func() {}) })
	if tr.spans[outer-1].name != "outer" || tr.spans[nested-1].name != "inner" || outer == nested {
		t.Errorf("nested spans got seqs %d and %d", outer, nested)
	}
}

func TestIngestDocDeterministicAndParsable(t *testing.T) {
	a, b := ingestDoc(9, 17), ingestDoc(9, 17)
	if !bytes.Equal(a, b) {
		t.Fatal("document is not a function of (seed, k)")
	}
	tree, err := xmltree.Parse(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	titles := tree.NodesWithTag("title")
	if len(titles) != 1 || tree.Nodes[titles[0]].Text != docTitle(9, 17) {
		t.Errorf("document title not found in %s", a)
	}
	if bytes.Equal(a, ingestDoc(9, 18)) {
		t.Error("distinct documents are identical")
	}
}
