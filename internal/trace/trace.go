// Package trace is the daemon's pipeline-stage tracing layer: named
// stages of the estimate and append paths, per-stage duration
// histograms exported to /metrics, and a sampled per-request Trace
// that records one request's stage breakdown for the slow-request
// log.
//
// The design goal is near-zero overhead on the hot path:
//
//   - Recorders are plain latency histograms — one wait-free atomic
//     Observe per stage, no allocation, cheap enough to run on every
//     append batch unconditionally.
//   - Per-request Traces are SAMPLED (1 in N requests) and pooled;
//     an unsampled request costs one atomic counter increment and
//     carries a nil *Trace, every method of which no-ops, so the
//     zero-allocation /estimate path stays zero-allocation.
//   - The slow-request log is rate-limited (a few lines per second),
//     so a latency storm cannot turn the logger into a second outage.
package trace

import (
	"context"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/metrics"
)

// Stage names one pipeline stage. The estimate path and the append
// path each use their own subset; recorders only materialize the
// stages they are declared with.
type Stage uint8

const (
	// Estimate path.
	StageDecode   Stage = iota // JSON request decode
	StageEstimate              // batch estimate: snapshot pin, binding and per-shard sum
	StageEncode                // JSON response encode

	// Append path.
	StageQueueWait    // arrival at the ingest coalescer -> submission slot acquired
	StageCoalesceWait // slot acquired -> group formed (greedy drain of the queue)
	StageParse        // XML parse of the (possibly merged) group
	StageBuild        // predicate catalog + summary build
	StageWALSubmit    // built (on the ready list) -> write lock held to commit it
	StageFsyncWait    // WAL group write + fsync
	StageInstall      // shard-set install under the write lock

	NumStages // sentinel; not a stage
)

var stageNames = [NumStages]string{
	"decode", "estimate", "encode",
	"queue_wait", "coalesce_wait", "parse", "build", "wal_submit", "fsync_wait", "install",
}

// String returns the stage's exposition label.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// EstimateStages is the estimate path's stage subset.
var EstimateStages = []Stage{StageDecode, StageEstimate, StageEncode}

// AppendStages is the append pipeline's stage subset.
var AppendStages = []Stage{StageQueueWait, StageCoalesceWait, StageParse, StageBuild,
	StageWALSubmit, StageFsyncWait, StageInstall}

// Recorder aggregates per-stage duration histograms under one
// exposition family. Observe is wait-free and allocation-free; a nil
// Recorder ignores observations, so instrumented code never needs a
// nil check.
type Recorder struct {
	family string
	help   string
	stages []Stage
	hists  [NumStages]*metrics.Histogram
}

// NewRecorder returns a recorder exporting the given stages as the
// histogram family `family{stage="..."}`.
func NewRecorder(family, help string, stages ...Stage) *Recorder {
	r := &Recorder{family: family, help: help, stages: stages}
	for _, s := range stages {
		r.hists[s] = metrics.NewHistogram(metrics.LatencyBounds)
	}
	return r
}

// Observe records one stage duration. Stages the recorder was not
// declared with, and nil recorders, are ignored.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil || s >= NumStages || r.hists[s] == nil {
		return
	}
	r.hists[s].Observe(d.Seconds())
}

// Collect writes the recorder's family: one labeled histogram series
// per declared stage.
func (r *Recorder) Collect(e *metrics.Expo) {
	e.HistogramFamily(r.family, r.help)
	for _, s := range r.stages {
		e.HistogramSamples(r.family, r.hists[s], "stage", s.String())
	}
}

// maxSteps bounds one trace's recorded stages; both paths use far
// fewer.
const maxSteps = 8

// Trace is one sampled request's stage breakdown. It is pooled by the
// Tracer; all methods are nil-safe, so unsampled requests carry a nil
// *Trace at zero cost. A Trace is owned by one request goroutine and
// is not safe for concurrent use.
type Trace struct {
	mark   time.Time
	n      int
	stages [maxSteps]Stage
	durs   [maxSteps]time.Duration
}

// Begin (re)starts the stage clock.
func (t *Trace) Begin() {
	if t == nil {
		return
	}
	t.mark = time.Now()
}

// Step closes the current stage: the time since Begin or the previous
// Step is recorded under s, and the clock restarts.
func (t *Trace) Step(s Stage) {
	if t == nil {
		return
	}
	now := time.Now()
	t.add(s, now.Sub(t.mark))
	t.mark = now
}

// Add records an explicitly measured stage duration without touching
// the stage clock.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.add(s, d)
}

func (t *Trace) add(s Stage, d time.Duration) {
	if t.n < maxSteps {
		t.stages[t.n] = s
		t.durs[t.n] = d
		t.n++
	}
}

// breakdown renders "decode=12µs estimate=3.1ms encode=8µs".
func (t *Trace) breakdown() string {
	if t == nil || t.n == 0 {
		return ""
	}
	b := make([]byte, 0, 96)
	for i := 0; i < t.n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, t.stages[i].String()...)
		b = append(b, '=')
		b = append(b, t.durs[i].String()...)
	}
	return string(b)
}

// Config tunes a Tracer.
type Config struct {
	// SampleEvery samples 1 in N requests for per-stage histograms and
	// slow-log breakdowns; <= 0 disables sampling entirely (Start
	// always returns nil).
	SampleEvery int
	// SlowThreshold logs any request slower than this (with the stage
	// breakdown when the request was sampled); 0 disables the slow log.
	SlowThreshold time.Duration
	// Logger receives slow-request lines; nil disables the slow log.
	Logger *slog.Logger
	// Recorder receives sampled stage durations; nil discards them.
	Recorder *Recorder
}

// maxSlowLogsPerSec bounds the slow-request log's output rate.
const maxSlowLogsPerSec = 8

// Tracer hands out sampled Traces and owns the slow-request log. A
// nil Tracer is valid and disables everything.
type Tracer struct {
	cfg  Config
	n    atomic.Uint64
	pool sync.Pool

	slowSec atomic.Int64 // second the slow-log token bucket was filled for
	slowN   atomic.Int64 // lines emitted within slowSec
}

// New returns a tracer for cfg.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg}
	t.pool.New = func() any { return &Trace{} }
	return t
}

// SampleEvery reports the tracer's sampling stride (0 when disabled
// or nil).
func (tr *Tracer) SampleEvery() int {
	if tr == nil || tr.cfg.SampleEvery <= 0 {
		return 0
	}
	return tr.cfg.SampleEvery
}

// Start returns a pooled Trace for 1 in SampleEvery calls and nil
// otherwise. The caller must pass the Trace (nil or not) to Finish.
func (tr *Tracer) Start() *Trace {
	if tr == nil || tr.cfg.SampleEvery <= 0 {
		return nil
	}
	if tr.n.Add(1)%uint64(tr.cfg.SampleEvery) != 0 {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.n = 0
	t.mark = time.Now()
	return t
}

// Finish completes one request: a sampled trace's stage durations
// flush into the recorder and the trace returns to the pool; any
// request over the slow threshold is logged (rate-limited), with the
// full stage breakdown when it was sampled.
func (tr *Tracer) Finish(t *Trace, endpoint, requestID string, total time.Duration, status int) {
	if tr == nil {
		return
	}
	var stages string
	if t != nil {
		for i := 0; i < t.n; i++ {
			tr.cfg.Recorder.Observe(t.stages[i], t.durs[i])
		}
		if tr.cfg.SlowThreshold > 0 && total >= tr.cfg.SlowThreshold {
			stages = t.breakdown()
		}
		tr.pool.Put(t)
	}
	if tr.cfg.SlowThreshold == 0 || tr.cfg.Logger == nil || total < tr.cfg.SlowThreshold {
		return
	}
	if !tr.allowSlowLog() {
		return
	}
	attrs := make([]any, 0, 10)
	attrs = append(attrs,
		"endpoint", endpoint,
		"request_id", requestID,
		"duration", total.String(),
		"status", status,
		"threshold", tr.cfg.SlowThreshold.String(),
	)
	if stages != "" {
		attrs = append(attrs, "stages", stages)
	}
	tr.cfg.Logger.Warn("slow request", attrs...)
}

// allowSlowLog is a one-second token bucket: at most
// maxSlowLogsPerSec lines per wall second.
func (tr *Tracer) allowSlowLog() bool {
	sec := time.Now().Unix()
	if tr.slowSec.Load() != sec {
		tr.slowSec.Store(sec)
		tr.slowN.Store(0)
	}
	return tr.slowN.Add(1) <= maxSlowLogsPerSec
}

// ctxKey keys the request's Trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's Trace, or nil — safe to use
// directly, since all Trace methods accept a nil receiver.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// RequestIDHeader is the propagated request-ID header: accepted from
// clients, generated when absent, echoed on every response and
// attached to request-scoped log lines.
const RequestIDHeader = "X-Request-ID"

var (
	reqSeq    atomic.Uint64
	reqPrefix = func() string {
		// A per-process prefix keeps IDs from colliding across
		// restarts without needing crypto randomness.
		return strconv.FormatUint(uint64(time.Now().UnixNano())&0xffffff, 16)
	}()
)

// NewRequestID generates a process-unique request ID:
// "<boot-prefix>-<counter>".
func NewRequestID() string {
	n := reqSeq.Add(1)
	b := make([]byte, 0, 20)
	b = append(b, reqPrefix...)
	b = append(b, '-')
	b = strconv.AppendUint(b, n, 10)
	return string(b)
}
