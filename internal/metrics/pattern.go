package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PatternStats is a bounded top-K tracker of per-pattern query
// statistics: request count, estimate magnitude distribution, and
// estimate-stage latency, keyed by the normalized pattern text. The
// first maxTracked distinct patterns get full histograms; later
// arrivals only bump an overflow counter, so a hostile or
// high-cardinality workload cannot grow the tracker without bound.
//
// Observe is on the /estimate hot path: a tracked pattern costs one
// RLock'd map lookup plus atomic histogram updates — no allocation.
type PatternStats struct {
	maxTracked int

	mu    sync.RWMutex
	m     map[string]*patternEntry
	other atomic.Uint64 // observations for untracked patterns
}

type patternEntry struct {
	pattern string
	count   atomic.Uint64
	est     *Histogram // ValueBounds
	lat     *Histogram // LatencyBounds, seconds
	// qerr digests shadow-execution q-errors for the pattern. Created
	// with the entry but only populated for patterns the accuracy
	// monitor sampled and verified.
	qerr *Histogram
}

// NewPatternStats returns a tracker holding at most maxTracked
// distinct patterns (<= 0 means DefaultMaxPatterns).
func NewPatternStats(maxTracked int) *PatternStats {
	if maxTracked <= 0 {
		maxTracked = DefaultMaxPatterns
	}
	return &PatternStats{maxTracked: maxTracked, m: make(map[string]*patternEntry)}
}

// DefaultMaxPatterns bounds the tracked-pattern set.
const DefaultMaxPatterns = 64

// NormalizePattern canonicalizes a pattern's text for keying: leading
// and trailing space is trimmed and internal whitespace runs collapse
// to one space. Allocation-free for already-normal patterns (the
// common case).
func NormalizePattern(p string) string {
	p = strings.TrimSpace(p)
	if !strings.ContainsAny(p, " \t\r\n") {
		return p
	}
	return strings.Join(strings.Fields(p), " ")
}

// Observe records one estimate for the pattern: the estimated answer
// size and the estimate-stage latency.
func (p *PatternStats) Observe(pat string, estimate float64, d time.Duration) {
	pat = NormalizePattern(pat)
	p.mu.RLock()
	ent := p.m[pat]
	p.mu.RUnlock()
	if ent == nil {
		p.mu.Lock()
		ent = p.m[pat]
		if ent == nil {
			if len(p.m) >= p.maxTracked {
				p.mu.Unlock()
				p.other.Add(1)
				return
			}
			ent = &patternEntry{pattern: pat, est: NewHistogram(ValueBounds), lat: NewHistogram(LatencyBounds), qerr: NewHistogram(QErrorBounds)}
			p.m[pat] = ent
		}
		p.mu.Unlock()
	}
	ent.count.Add(1)
	ent.est.Observe(estimate)
	ent.lat.Observe(d.Seconds())
}

// ObserveQError records one shadow-verified q-error for the pattern.
// Untracked patterns (beyond the bounded set) are dropped silently —
// the pattern's serving-path Observe already bumped the overflow
// counter, and an accuracy digest without its request digest would be
// unanchorable anyway.
func (p *PatternStats) ObserveQError(pat string, q float64) {
	pat = NormalizePattern(pat)
	p.mu.RLock()
	ent := p.m[pat]
	p.mu.RUnlock()
	if ent != nil {
		ent.qerr.Observe(q)
	}
}

// Untracked returns the observation count that overflowed the tracked
// set.
func (p *PatternStats) Untracked() uint64 { return p.other.Load() }

// Collect exports the tracked patterns: per-pattern request counters,
// latency sum/count (enough for rate and mean) and mean estimate while
// any pattern is tracked, and the untracked-overflow counter.
func (p *PatternStats) Collect(e *Expo) {
	p.mu.RLock()
	ents := make([]*patternEntry, 0, len(p.m))
	for _, ent := range p.m {
		ents = append(ents, ent)
	}
	p.mu.RUnlock()
	sort.Slice(ents, func(i, j int) bool { return ents[i].pattern < ents[j].pattern })

	// The per-pattern families are only declared once some pattern is
	// tracked, so a fresh exposition carries no sample-less families.
	if len(ents) > 0 {
		e.Family("xqest_pattern_requests_total", "counter", "Estimates served per tracked pattern.")
		for _, ent := range ents {
			e.Sample("xqest_pattern_requests_total", float64(ent.count.Load()), "pattern", ent.pattern)
		}
		e.Family("xqest_pattern_latency_seconds_sum", "counter", "Cumulative estimate-stage seconds per tracked pattern.")
		for _, ent := range ents {
			e.Sample("xqest_pattern_latency_seconds_sum", ent.lat.Sum(), "pattern", ent.pattern)
		}
		e.Family("xqest_pattern_latency_seconds_count", "counter", "Estimates timed per tracked pattern.")
		for _, ent := range ents {
			e.Sample("xqest_pattern_latency_seconds_count", float64(ent.lat.Count()), "pattern", ent.pattern)
		}
		e.Family("xqest_pattern_estimate_mean", "gauge", "Mean estimated answer size per tracked pattern.")
		for _, ent := range ents {
			e.Sample("xqest_pattern_estimate_mean", ent.est.Mean(), "pattern", ent.pattern)
		}
	}
	// Per-pattern q-error digests: only declared when some pattern has
	// shadow-verified observations, so an exposition without accuracy
	// sampling carries no sample-less families.
	var verified []*patternEntry
	for _, ent := range ents {
		if ent.qerr.Count() > 0 {
			verified = append(verified, ent)
		}
	}
	if len(verified) > 0 {
		e.Family("xqest_pattern_qerror_count", "counter", "Shadow-verified estimates per tracked pattern.")
		for _, ent := range verified {
			e.Sample("xqest_pattern_qerror_count", float64(ent.qerr.Count()), "pattern", ent.pattern)
		}
		e.Family("xqest_pattern_qerror_mean", "gauge", "Mean shadow-verified q-error per tracked pattern.")
		for _, ent := range verified {
			e.Sample("xqest_pattern_qerror_mean", ent.qerr.Sum()/float64(ent.qerr.Count()), "pattern", ent.pattern)
		}
	}
	e.Counter("xqest_pattern_untracked_requests_total",
		"Estimates whose pattern overflowed the tracked set.", float64(p.Untracked()))
}
