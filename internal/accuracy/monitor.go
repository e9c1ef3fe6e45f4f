package accuracy

// This file is the online half of the package: sampled live estimates
// are shadow-executed against the exact engine off the serving path,
// and the observed q-errors are digested into the same metrics the
// offline evaluator reports. The paper's answer-size-feedback story
// made continuous — the estimator's production error distribution is
// measured from real traffic, not a hand-picked query set.

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/metrics"
)

// ErrUnverifiable reports that a sampled pattern cannot be
// shadow-executed: the serving snapshot holds summary-only shards, so
// an exact count is impossible. It is a classification, not a failure
// — the estimate may be perfect; nothing can check.
var ErrUnverifiable = errors.New("accuracy: pattern unverifiable against summary-only shards")

// ExecFunc computes the exact answer size of one sampled pattern
// against a pinned snapshot, aborting once deadline passes (zero
// deadline means unbudgeted). Implementations signal classification
// through errors.Is: context.DeadlineExceeded for a blown budget,
// ErrUnverifiable for summary-only snapshots.
type ExecFunc func(deadline time.Time) (float64, error)

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// SampleEvery shadow-executes 1 in N estimates; <= 0 disables
	// sampling entirely (Sampled always reports false).
	SampleEvery int
	// Workers is the shadow-execution pool size (default 1). Exact
	// counting competes with serving for CPU; one worker plus the
	// queue bound caps the interference.
	Workers int
	// QueueSize bounds the pending-job queue (default 64). A full
	// queue drops the sample and bumps the dropped counter — the
	// serving path never blocks on verification.
	QueueSize int
	// Budget is the per-execution wall-clock budget (default 200ms,
	// negative disables). A pathological pattern costs one budget, not
	// a worker.
	Budget time.Duration
	// Patterns, when set, receives per-pattern q-error observations.
	Patterns *metrics.PatternStats
}

// Monitor samples estimates and shadow-executes them on a bounded
// background pool. Sampled is the only hot-path method: one atomic
// increment, no allocation, nil-safe (a nil Monitor never samples).
type Monitor struct {
	cfg  MonitorConfig
	reqs atomic.Uint64

	sampled      atomic.Uint64
	dropped      atomic.Uint64
	verified     atomic.Uint64
	deadlined    atomic.Uint64
	unverifiable atomic.Uint64
	failed       atomic.Uint64
	relErrBits   atomic.Uint64 // float64 bits of the summed relative error

	qerr *metrics.Histogram

	jobs      chan monitorJob
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

type monitorJob struct {
	pattern  string
	estimate float64
	exec     ExecFunc
}

// NewMonitor starts the worker pool and returns the monitor. Close
// must be called to stop the workers; pending jobs are abandoned, not
// drained — shutdown never waits on shadow executions.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Budget == 0 {
		cfg.Budget = 200 * time.Millisecond
	}
	m := &Monitor{
		cfg:  cfg,
		qerr: metrics.NewHistogram(metrics.QErrorBounds),
		jobs: make(chan monitorJob, cfg.QueueSize),
		done: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Sampled reports whether the current estimate should be
// shadow-executed: true for 1 in SampleEvery calls. Nil-safe and
// allocation-free (the trace.Tracer sampling idiom), so the unsampled
// /estimate path pays one atomic increment.
func (m *Monitor) Sampled() bool {
	if m == nil || m.cfg.SampleEvery <= 0 {
		return false
	}
	return m.reqs.Add(1)%uint64(m.cfg.SampleEvery) == 0
}

// Submit enqueues one sampled estimate for shadow execution. It never
// blocks: a full queue (or a closed monitor) drops the job and bumps
// the dropped counter. exec must capture its own pinned snapshot — the
// monitor knows nothing about shards.
func (m *Monitor) Submit(pattern string, estimate float64, exec ExecFunc) {
	if m == nil {
		return
	}
	m.sampled.Add(1)
	select {
	case <-m.done:
		// Checked before the send so a closed monitor deterministically
		// drops instead of parking jobs in a queue nothing drains. A
		// Submit racing Close can still win the send; the queued job is
		// simply abandoned.
		m.dropped.Add(1)
		return
	default:
	}
	select {
	case m.jobs <- monitorJob{pattern: pattern, estimate: estimate, exec: exec}:
	default:
		m.dropped.Add(1)
	}
}

func (m *Monitor) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case j := <-m.jobs:
			m.run(j)
		}
	}
}

// run executes one job and classifies the outcome: verified (feed the
// digests), deadline (budget blown), unverifiable (summary-only
// snapshot), or failed (anything else — parse drift, unknown
// predicates).
func (m *Monitor) run(j monitorJob) {
	var deadline time.Time
	if m.cfg.Budget > 0 {
		deadline = time.Now().Add(m.cfg.Budget)
	}
	real, err := j.exec(deadline)
	switch {
	case err == nil:
		m.verified.Add(1)
		q := QError(j.estimate, real)
		m.qerr.Observe(q)
		addFloat(&m.relErrBits, math.Abs(j.estimate-real)/math.Max(real, 1))
		if m.cfg.Patterns != nil {
			m.cfg.Patterns.ObserveQError(j.pattern, q)
		}
	case errors.Is(err, context.DeadlineExceeded):
		m.deadlined.Add(1)
	case errors.Is(err, ErrUnverifiable):
		m.unverifiable.Add(1)
	default:
		m.failed.Add(1)
	}
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		cur := bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + v)
		if bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Close stops the workers. Queued-but-unstarted jobs are dropped;
// in-flight executions finish within their budget. Safe to call more
// than once and on a nil monitor.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.closeOnce.Do(func() {
		close(m.done)
		m.wg.Wait()
	})
}

// Collect exports the monitor's families: the q-error histogram, the
// summed relative error, the sampling-pipeline counters and the
// sampling configuration.
func (m *Monitor) Collect(e *metrics.Expo) {
	e.HistogramFamily("xqest_accuracy_qerror",
		"Shadow-verified estimate q-error (max(est/real, real/est), add-one smoothed).")
	e.HistogramSamples("xqest_accuracy_qerror", m.qerr)
	e.Counter("xqest_accuracy_relative_error_total",
		"Sum of |est-real|/max(real, 1) over verified estimates; divide by xqest_accuracy_verified_total for the mean.",
		math.Float64frombits(m.relErrBits.Load()))
	e.Counter("xqest_accuracy_sampled_total",
		"Estimates sampled for shadow execution.", float64(m.sampled.Load()))
	e.Counter("xqest_accuracy_dropped_total",
		"Sampled estimates dropped on queue overflow or shutdown.", float64(m.dropped.Load()))
	e.Counter("xqest_accuracy_verified_total",
		"Shadow executions that produced an exact count.", float64(m.verified.Load()))
	e.Counter("xqest_accuracy_deadline_total",
		"Shadow executions aborted by the time budget.", float64(m.deadlined.Load()))
	e.Counter("xqest_accuracy_unverifiable_total",
		"Sampled estimates unverifiable against summary-only shards.", float64(m.unverifiable.Load()))
	e.Counter("xqest_accuracy_failed_total",
		"Shadow executions that failed outright.", float64(m.failed.Load()))
	e.Gauge("xqest_accuracy_sample_every", "Shadow-executes 1 in this many estimates.", float64(m.cfg.SampleEvery))
	e.Gauge("xqest_accuracy_budget_seconds", "Wall-clock budget of one shadow execution.", m.cfg.Budget.Seconds())
}
