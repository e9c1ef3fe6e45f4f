package core

import (
	"fmt"
	"sort"

	"xmlest/internal/histogram"
)

// Summary folding: MergeSummaries turns a list of per-shard summaries
// into one monolithic estimator over the concatenated grid — the
// document-aligned grid whose buckets are the shard grids' buckets laid
// side by side, so no bucket spans a shard boundary. Under that grid
// the sharded decomposition is exact (see DESIGN.md, "Shard
// lifecycle"): every estimation formula is per-cell local and
// index-translation invariant, and cross-shard cell pairs contribute
// zero, so the folded estimator reproduces the per-shard fan-out sum
// to float-accumulation order. Unlike a compaction rebuild, the fold
// touches only the summaries — O(total non-zero cells), no documents.
// Serving does not use it (the shard store answers by per-shard
// fan-out; see DESIGN.md, "Serving plan"); it stays as a tested
// property of the summaries and a benchmark probe.

// MergedPredicateMixed marks predicate names whose per-shard summaries
// disagree on the no-overlap property or on coverage availability.
// Per-shard fan-out runs a different estimation algorithm per shard for
// such a predicate (Fig 10 where coverage exists, the primitive Fig 6
// elsewhere), which a single folded estimator cannot reproduce; the
// folded estimator carries the predicate conservatively (overlap, no
// coverage) and callers needing fan-out equivalence must route queries
// touching it to the fan-out path.
type MergedPredicateMixed = map[string]bool

// MergeSummaries folds per-shard summaries into one estimator on the
// concatenated grid. Parts must be non-nil; summaries with level
// histograms cannot be folded (the folded estimator carries no
// parent-child refinement) and return an error. The second result
// reports predicates with mixed per-shard no-overlap/coverage state
// (see MergedPredicateMixed).
func MergeSummaries(parts []*Estimator) (*Estimator, MergedPredicateMixed, error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("core: MergeSummaries with no summaries")
	}
	mergedSize := 0
	for i, p := range parts {
		if p == nil {
			return nil, nil, fmt.Errorf("core: nil summary at index %d", i)
		}
		if p.levels != nil {
			return nil, nil, fmt.Errorf("core: cannot fold summaries with level histograms")
		}
		mergedSize += p.grid.Size()
	}
	if mergedSize > histogram.MaxGridSize {
		return nil, nil, fmt.Errorf("core: concatenated grid size %d exceeds the supported maximum %d",
			mergedSize, histogram.MaxGridSize)
	}

	// Concatenated grid: each part contributes its bucket widths as one
	// contiguous block; block s starts at bucket offset Σ_{t<s} g_t.
	bounds := make([]int, 1, mergedSize+1)
	offsets := make([]int, len(parts))
	base := 0
	for s, p := range parts {
		offsets[s] = len(bounds) - 1
		pb := p.grid.Bounds()
		for i := 1; i < len(pb); i++ {
			bounds = append(bounds, base+pb[i])
		}
		base += p.grid.MaxPos()
	}
	grid, err := histogram.NewGrid(bounds)
	if err != nil {
		return nil, nil, fmt.Errorf("core: concatenated grid: %w", err)
	}

	// The parts sit block-diagonally on the concatenated grid, so their
	// translated cells, appended part by part, are in (i, j) order.
	translate := func(dst []histogram.Cell, src *histogram.Position, off int) []histogram.Cell {
		for _, c := range src.NonZeroCells() {
			dst = append(dst, histogram.Cell{I: off + c.I, J: off + c.J, Count: c.Count})
		}
		return dst
	}
	var trueCells []histogram.Cell
	for s, p := range parts {
		trueCells = translate(trueCells, p.trueHist, offsets[s])
	}
	e := &Estimator{
		grid:     grid,
		trueHist: histogram.NewPosition(grid, trueCells),
		hists:    make(map[string]*histogram.Position),
		covs:     make(map[string]*histogram.Coverage),
		overlap:  make(map[string]bool),
	}

	// Per predicate: union the position histograms block-diagonally and
	// fold coverage when every holding part agrees the predicate is
	// no-overlap with coverage available.
	mixed := make(MergedPredicateMixed)
	type predState struct {
		overlap     bool
		hasCoverage bool
	}
	states := make(map[string]*predState)
	for _, p := range parts {
		for _, name := range p.Names() {
			st := states[name]
			overlap := p.overlap[name]
			hasCov := p.covs[name] != nil
			if st == nil {
				states[name] = &predState{overlap: overlap, hasCoverage: hasCov}
				continue
			}
			if st.overlap != overlap || st.hasCoverage != hasCov {
				mixed[name] = true
				st.overlap = true
				st.hasCoverage = false
			}
		}
	}
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := states[name]
		var cells []histogram.Cell
		var entries []histogram.CoverageEntry
		for s, p := range parts {
			ph, ok := p.hists[name]
			if !ok {
				continue
			}
			off := offsets[s]
			cells = translate(cells, ph, off)
			if st.hasCoverage {
				p.covs[name].EachFrac(func(i, j, m, n int, f float64) {
					entries = append(entries, histogram.CoverageEntry{I: off + i, J: off + j, M: off + m, N: off + n, Frac: f})
				})
			}
		}
		e.hists[name] = histogram.NewPosition(grid, cells)
		e.overlap[name] = st.overlap
		if st.hasCoverage {
			e.covs[name] = histogram.NewCoverageFromEntries(grid, entries)
		}
		e.names = append(e.names, name)
	}
	return e, mixed, nil
}
