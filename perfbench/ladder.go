package main

import (
	"net/http"
	"time"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/pattern"
	"xmlest/internal/shard"
)

// span is one timed call at a layer's public entry point. Spans of one
// ladder input share an id; parent names the span of the layer above
// (0 for a root).
type span struct {
	id     int
	seq    int // this span's number, unique within the trace
	parent int // seq of the parent span, 0 for a root
	name   string
	start  time.Time
	end    time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	spans []span
}

// begin opens a span named name under parent and returns its seq.
func (t *tracer) begin(id, parent int, name string) int {
	t.spans = append(t.spans, span{id: id, seq: len(t.spans) + 1, parent: parent, name: name})
	seq := len(t.spans)
	t.spans[seq-1].start = time.Now()
	return seq
}

// end closes the span seq.
func (t *tracer) end(seq int) { t.spans[seq-1].end = time.Now() }

// time runs fn as a span named name under parent and returns its seq.
func (t *tracer) time(id, parent int, name string, fn func()) int {
	seq := t.begin(id, parent, name)
	fn()
	t.end(seq)
	return seq
}

// durations returns the duration of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// durations of its child spans. The ladder times each layer's entry
// point on the same input one after another rather than nested, so a
// child's duration is subtracted whole, not clipped to the parent's
// interval; the result is the cost the layer adds on top of the layers
// below it, and it can be negative when a child call was slower than
// the work the parent did for it.
func (t *tracer) selfTimes(name string) []time.Duration {
	childSum := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			childSum[s.parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur()-childSum[s.seq])
		}
	}
	return out
}

// medianOf is the median of ds in the given unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return median(vs)
}

// estimateLadder times the workload's /estimate inputs at each layer's
// public entry point, top to bottom: the server handler, the facade
// batch, the facade compile, the pattern parser, the shard store's
// prepare and estimate, and core's prepare, estimate and pH-join. Each
// layer's pass walks every input before the next layer's pass starts,
// so on a cold workload every layer misses the same caches the served
// request missed, and on a hot one every layer hits them.
//
// On a hot workload a request reaches the shard and core layers only
// through bindings compiled earlier, so those spans time warm bindings
// and the parse and prepare spans are roots; on a cold workload every
// layer below the facade is a child of the facade span.
type estimateLadder struct {
	db    *xmlest.Database
	h     http.Handler
	load  *estimateLoad
	cold  bool
	live  *xmlest.Estimator
	coreE *core.Estimator // private summary over the base corpus

	// Warm bindings per input pattern, for the hot path.
	warmShard [][]*shard.Prepared
	warmCore  [][]*core.PreparedQuery
}

func newEstimateLadder(db *xmlest.Database, h http.Handler, load *estimateLoad, coreE *core.Estimator, cold bool) (*estimateLadder, error) {
	live, err := db.NewEstimator(serveOptions)
	if err != nil {
		return nil, err
	}
	l := &estimateLadder{db: db, h: h, load: load, cold: cold, live: live, coreE: coreE}
	if cold {
		return l, nil
	}
	st := db.Store()
	for _, ps := range load.batches {
		var ws []*shard.Prepared
		var wc []*core.PreparedQuery
		for _, p := range ps {
			parsed, err := pattern.Parse(p)
			if err != nil {
				return nil, err
			}
			b, err := st.PrepareSet(st.Current(), parsed, serveOptions)
			if err != nil {
				return nil, err
			}
			q, err := coreE.Prepare(parsed)
			if err != nil {
				return nil, err
			}
			if _, err := b.Estimate(); err != nil {
				return nil, err
			}
			if _, err := q.Estimate(); err != nil {
				return nil, err
			}
			ws, wc = append(ws, b), append(wc, q)
		}
		l.warmShard, l.warmCore = append(l.warmShard, ws), append(l.warmCore, wc)
	}
	return l, nil
}

// run walks the inputs reps times.
func (l *estimateLadder) run(tr *tracer, reps int, rep *report) error {
	for r := 0; r < reps; r++ {
		if err := l.walk(tr, rep); err != nil {
			return err
		}
	}
	return nil
}

// forEach calls fn for every pattern of every input until one fails.
func (l *estimateLadder) forEach(fn func(i, j int, p string) error) error {
	for i, ps := range l.load.batches {
		for j, p := range ps {
			if err := fn(i, j, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *estimateLadder) walk(tr *tracer, rep *report) error {
	calls, batches := l.load.calls, l.load.batches
	n := len(calls)
	srv, fac := make([]int, n), make([]int, n)
	for i, c := range calls {
		var status int
		var body []byte
		srv[i] = tr.time(i, 0, "server.estimate", func() { status, body = c.do(l.h) })
		rep.check(checkEstimate(status, body, batches[i], l.load.twigs))
	}
	var res []xmlest.Result
	var err error
	for i, ps := range batches {
		fac[i] = tr.time(i, srv[i], "xmlest.estimate", func() { _, res, err = l.live.EstimateBatchInto(ps, res[:0]) })
		if err != nil {
			return err
		}
	}
	fresh, err := l.db.NewEstimator(serveOptions)
	if err != nil {
		return err
	}
	if err := l.forEach(func(i, _ int, p string) (err error) {
		tr.time(i, 0, "xmlest.compile", func() { _, err = fresh.Compile(p) })
		return err
	}); err != nil {
		return err
	}
	below := func(i int) int { // parent of the per-pattern spans
		if l.cold {
			return fac[i]
		}
		return 0
	}
	parsed := make([][]*pattern.Pattern, n)
	prepSeq := make([][]int, n)
	bound := make([][]*shard.Prepared, n)
	cq := make([][]*core.PreparedQuery, n)
	for i, ps := range batches {
		parsed[i] = make([]*pattern.Pattern, len(ps))
		prepSeq[i] = make([]int, len(ps))
		bound[i] = make([]*shard.Prepared, len(ps))
		cq[i] = make([]*core.PreparedQuery, len(ps))
	}
	if err := l.forEach(func(i, j int, p string) (err error) {
		tr.time(i, below(i), "pattern.parse", func() { parsed[i][j], err = pattern.Parse(p) })
		return err
	}); err != nil {
		return err
	}
	st := l.db.Store()
	if err := l.forEach(func(i, j int, _ string) (err error) {
		prepSeq[i][j] = tr.time(i, below(i), "shard.prepare", func() {
			bound[i][j], err = st.PrepareSet(st.Current(), parsed[i][j], serveOptions)
		})
		return err
	}); err != nil {
		return err
	}
	if err := l.forEach(func(i, j int, _ string) (err error) {
		tr.time(i, prepSeq[i][j], "core.prepare", func() { cq[i][j], err = l.coreE.Prepare(parsed[i][j]) })
		return err
	}); err != nil {
		return err
	}
	estSeq := make([][]int, n)
	if err := l.forEach(func(i, j int, _ string) (err error) {
		b := bound[i][j]
		if !l.cold {
			b = l.warmShard[i][j]
		}
		if j == 0 {
			estSeq[i] = make([]int, len(batches[i]))
		}
		estSeq[i][j] = tr.time(i, fac[i], "shard.estimate", func() { _, err = b.Estimate() })
		return err
	}); err != nil {
		return err
	}
	if err := l.forEach(func(i, j int, _ string) (err error) {
		q := cq[i][j]
		if !l.cold {
			q = l.warmCore[i][j]
		}
		tr.time(i, estSeq[i][j], "core.estimate", func() { _, err = q.Estimate() })
		return err
	}); err != nil {
		return err
	}
	return l.forEach(func(i, j int, _ string) error {
		for _, e := range parsed[i][j].Edges() {
			ha, err := l.coreE.Histogram(e[0].PredName())
			if err != nil {
				return err
			}
			hb, err := l.coreE.Histogram(e[1].PredName())
			if err != nil {
				return err
			}
			tr.time(i, 0, "core.phjoin", func() { _, err = core.PHJoin(ha, hb) })
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// set reports the estimate ladder's per-layer figures.
func (l *estimateLadder) set(rep *report, tr *tracer) {
	rep.set("server.estimate_self_us", medianOf(tr.selfTimes("server.estimate"), time.Microsecond), "us")
	rep.set("xmlest.estimate_us", medianOf(tr.durations("xmlest.estimate"), time.Microsecond), "us")
	rep.set("xmlest.compile_us", medianOf(tr.durations("xmlest.compile"), time.Microsecond), "us")
	rep.set("pattern.parse_us", medianOf(tr.durations("pattern.parse"), time.Microsecond), "us")
	rep.set("shard.prepare_us", medianOf(tr.durations("shard.prepare"), time.Microsecond), "us")
	rep.set("shard.estimate_us", medianOf(tr.durations("shard.estimate"), time.Microsecond), "us")
	rep.set("core.prepare_us", medianOf(tr.durations("core.prepare"), time.Microsecond), "us")
	rep.set("core.estimate_ns", medianOf(tr.durations("core.estimate"), time.Nanosecond), "ns")
	rep.set("core.phjoin_ns", medianOf(tr.durations("core.phjoin"), time.Nanosecond), "ns")
	rep.env["ladder_spans"] = len(tr.spans)
}
