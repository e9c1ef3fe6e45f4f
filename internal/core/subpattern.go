package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"xmlest/internal/histogram"
)

// SubPattern carries the estimation state of a (partially joined) twig
// pattern, anchored at one of its pattern nodes — the node through
// which the next join will happen. It is the unit the Fig 10 formulas
// compose:
//
//   - Est: the estimation histogram; cell (i, j) holds the estimated
//     number of matches of the sub-pattern whose anchor node falls in
//     that cell ("EstAB" in the paper's notation).
//   - Hist: the participation histogram; cell (i, j) holds the
//     estimated number of distinct data nodes in that cell that occur
//     at the anchor in at least one match ("HistAB_Px").
//   - Base: the anchor predicate's own position histogram ("HistA_P1").
//   - Cvg: the anchor predicate's (propagated) coverage histogram, when
//     the anchor predicate has the no-overlap property; nil otherwise.
//
// The join factor Jn_FctAB_Px[i][j] = Est[i][j]/Hist[i][j] (zero where
// Hist is zero) is derived on demand.
type SubPattern struct {
	Est  *histogram.Position
	Hist *histogram.Position
	Base *histogram.Position
	Cvg  *histogram.Coverage

	// NoOverlap records whether the anchor predicate has the no-overlap
	// property (Definition 2); joins through a no-overlap anchor use the
	// Fig 10 formulas when coverage is available.
	NoOverlap bool
}

// Leaf returns the sub-pattern of a single pattern node: its estimate
// and participation both equal the predicate's position histogram, and
// its join factor is one everywhere.
//
// Histograms are immutable, so the leaf shares the base histogram
// directly; join results are always freshly allocated, and each holds
// only its non-zero cells.
func Leaf(base *histogram.Position, cvg *histogram.Coverage, noOverlap bool) SubPattern {
	return SubPattern{
		Est:       base,
		Hist:      base,
		Base:      base,
		Cvg:       cvg,
		NoOverlap: noOverlap,
	}
}

// Total returns the sub-pattern's estimated answer size.
func (s SubPattern) Total() float64 { return s.Est.Total() }

// jnFct returns the join factor at cell (i, j).
func (s SubPattern) jnFct(i, j int) float64 {
	h := s.Hist.Count(i, j)
	if h <= 0 {
		return 0
	}
	return s.Est.Count(i, j) / h
}

// joinScratch is the per-join working memory, pooled so that a join
// allocates only its results. plane is the dense g×g ratio lookup of
// scaleCoverage and diag a histogram's diagonal, both all zero between
// uses; a join returns its scratch to the pool only when it completes.
type joinScratch struct {
	plane   []float64
	diag    []float64
	mass    []histogram.Cell
	regions []histogram.Region
}

var scratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

func (sc *joinScratch) regionsFor(n int) []histogram.Region {
	sc.regions = slices.Grow(sc.regions[:0], n)[:n]
	return sc.regions
}

func (sc *joinScratch) diagFor(g int) []float64 {
	if len(sc.diag) < g {
		sc.diag = make([]float64, g)
	}
	return sc.diag[:g]
}

func (sc *joinScratch) planeFor(g int) []float64 {
	if len(sc.plane) < g*g {
		sc.plane = make([]float64, g*g)
	}
	return sc.plane[:g*g]
}

// mapCells returns the sparse histogram of fn(x, src[x]) over the cells
// src, in their order, without the zero values.
func mapCells(grid histogram.Grid, src []histogram.Cell, fn func(x int, c histogram.Cell) float64) *histogram.Position {
	cells := make([]histogram.Cell, 0, len(src))
	for x, c := range src {
		if v := fn(x, c); v != 0 {
			cells = append(cells, histogram.Cell{I: c.I, J: c.J, Count: v})
		}
	}
	return histogram.NewPosition(grid, cells)
}

// JoinAncestor joins sub-pattern anc with sub-pattern desc through an
// ancestor-descendant edge (anc's anchor above desc's anchor) and
// returns the combined sub-pattern anchored at anc's anchor.
//
// When the ancestor anchor has the no-overlap property and coverage is
// available, the Fig 10 ancestor-based formulas are used: the estimate
// sums coverage-weighted descendant estimates, participation follows
// the collision formula N(1-((N-1)/N)^M), and coverage is propagated by
// the participation ratio. Otherwise the primitive Fig 6 ancestor-based
// estimation applies, with participation equal to the estimate
// (Fig 10, case 1) capped at the available node count.
//
// Every join costs O(g + nnz) of its operands plus pooled scratch:
// results are emitted cell by cell in (i, j) order, and the Fig 9
// partial sums come from histogram.Regions. Every sum adds the same
// terms in the same order as the dense formulation, so estimates are
// bit-identical to it.
func JoinAncestor(anc, desc SubPattern) (SubPattern, error) {
	if err := checkGrids(anc.Est, desc.Est); err != nil {
		return SubPattern{}, err
	}
	if anc.NoOverlap && anc.Cvg != nil {
		sc := scratchPool.Get().(*joinScratch)
		out := joinAncestorNoOverlap(anc, desc, sc)
		scratchPool.Put(sc)
		return out, nil
	}
	return joinAncestorOverlap(anc, desc), nil
}

func joinAncestorOverlap(anc, desc SubPattern) SubPattern {
	// Primitive (Fig 6) estimation against the descendant's estimation
	// histogram: each participating ancestor node carries jnFct(anc)
	// matches of its own sub-pattern and pairs with the descendant
	// match mass in its join regions.
	est, _ := EstimateAncestorBased(anc.Est, desc.Est)
	// Participation, case 1 (overlap anchor): HistAB = EstAB, capped at
	// the number of distinct anchor nodes actually present per cell.
	hist := capCellwise(est, anc.Hist)
	return SubPattern{Est: est, Hist: hist, Base: anc.Base, Cvg: nil, NoOverlap: anc.NoOverlap}
}

func joinAncestorNoOverlap(anc, desc SubPattern, sc *joinScratch) SubPattern {
	grid := anc.Est.Grid()
	g := grid.Size()

	// Estimate (Fig 10, ancestor-based):
	// Est[i][j] = JnFct_anc[i][j] ×
	//   Σ_{(m,n)} Cvg_anc[m][n][i][j] × Hist_desc[m][n] × JnFct_desc[m][n].
	// The inner product Hist×JnFct is the descendant's estimate mass.
	// The CSR rows of the coverage group entries by covered (descendant)
	// cell, so the descendant mass is read once per row and the masses
	// of the ancestor cells accumulate in an Accumulator.
	acc := histogram.NewAccumulator(g)
	descEst := desc.Est.Cursor()
	vCell, rowStart, aCell, frac := anc.Cvg.CSR()
	for r := range vCell {
		m, n := histogram.SplitCell(vCell[r])
		e := descEst.Count(m, n)
		if e == 0 {
			continue
		}
		for k := rowStart[r]; k < rowStart[r+1]; k++ {
			i, j := histogram.SplitCell(aCell[k])
			acc.Add(i, j, frac[k]*e)
		}
	}
	sc.mass = acc.Cells(sc.mass[:0])
	acc.Release()
	cells := make([]histogram.Cell, 0, len(sc.mass))
	ancEst, ancHist := anc.Est.Cursor(), anc.Hist.Cursor()
	for _, c := range sc.mass {
		if c.I > c.J { // a decoded coverage may name cells below the diagonal
			continue
		}
		var jnFct float64 // as SubPattern.jnFct
		if h := ancHist.Count(c.I, c.J); !(h <= 0) {
			jnFct = ancEst.Count(c.I, c.J) / h
		}
		if v := jnFct * c.Count; v != 0 {
			cells = append(cells, histogram.Cell{I: c.I, J: c.J, Count: v})
		}
	}
	est := histogram.NewPosition(grid, cells)

	// Participation (Fig 10, case 2):
	// N = Hist_anc[i][j], M = Σ_{m=i..j, n=m..j} Hist_desc[m][n],
	// HistAB[i][j] = N × (1 - ((N-1)/N)^M). Only the ancestor's
	// non-zero cells can participate; the triangle sum M is the region
	// sum of the descendant participation histogram.
	q := anc.Hist.NonZeroCells()
	regions := sc.regionsFor(len(q))
	histogram.Regions(g, desc.Hist.NonZeroCells(), q, regions)
	hist := mapCells(grid, q, func(x int, c histogram.Cell) float64 {
		n, m := c.Count, regions[x].Sum()
		switch {
		case n <= 0 || m <= 0:
			return 0
		case n <= 1:
			return n // a single ancestor participates if any descendant exists
		}
		return n * (1 - math.Pow((n-1)/n, m))
	})

	// Coverage propagation (Fig 10, case 1):
	// CvgAB[i][j][m][n] = Cvg_anc[i][j][m][n] × HistAB[m][n]/Hist_anc[m][n].
	cvg := scaleCoverage(anc.Cvg, hist, anc.Hist, sc)
	return SubPattern{Est: est, Hist: hist, Base: anc.Base, Cvg: cvg, NoOverlap: true}
}

// scaleCoverage propagates coverage by the Fig 10 participation ratio
// hist/base of each ancestor cell (zero where base is empty), laid out
// in the scratch plane for the copy and cleared afterwards.
func scaleCoverage(cvg *histogram.Coverage, hist, base *histogram.Position, sc *joinScratch) *histogram.Coverage {
	g := cvg.Grid().Size()
	ratio := sc.planeFor(g)
	cells := base.NonZeroCells()
	h := hist.Cursor()
	for _, c := range cells {
		if c.Count > 0 {
			ratio[c.I*g+c.J] = h.Count(c.I, c.J) / c.Count
		}
	}
	out := cvg.Scaled(ratio)
	for _, c := range cells {
		ratio[c.I*g+c.J] = 0
	}
	return out
}

// JoinDescendant joins anc and desc through an ancestor-descendant edge
// and returns the combined sub-pattern anchored at desc's anchor.
//
// When the ancestor anchor has the no-overlap property with coverage,
// the Fig 10 descendant-based formulas apply; otherwise the primitive
// Fig 6 descendant-based estimation is used.
func JoinDescendant(anc, desc SubPattern) (SubPattern, error) {
	if err := checkGrids(anc.Est, desc.Est); err != nil {
		return SubPattern{}, err
	}
	grid := desc.Est.Grid()
	var est, hist *histogram.Position
	if anc.NoOverlap && anc.Cvg != nil {
		// Est[i][j] = Hist_desc[i][j] × JnFct_desc[i][j] ×
		//   Σ_{m<=i, n>=j} Cvg_anc[i][j][m][n] × JnFct_anc[m][n],
		// with both coverage-weighted sums taken per CSR row (covered
		// cell). Participation (Fig 10, case 3): the descendant
		// participates in proportion to its covered fraction by
		// non-empty ancestor cells.
		vCell, rowStart, aCell, frac := anc.Cvg.CSR()
		covFct, covPart := make([]float64, len(vCell)), make([]float64, len(vCell))
		for r := range vCell {
			var f, p float64
			for k := rowStart[r]; k < rowStart[r+1]; k++ {
				m, n := histogram.SplitCell(aCell[k])
				if jf := anc.jnFct(m, n); jf != 0 {
					f += frac[k] * jf
				}
				if anc.Hist.Count(m, n) > 0 {
					p += frac[k]
				}
			}
			covFct[r], covPart[r] = f, p
		}
		byRow := func(h *histogram.Position, perRow []float64) *histogram.Position {
			return mapCells(grid, h.NonZeroCells(), func(_ int, c histogram.Cell) float64 {
				var w float64
				if r := anc.Cvg.Row(c.I, c.J); r >= 0 {
					w = perRow[r]
				}
				return c.Count * w
			})
		}
		est, hist = byRow(desc.Est, covFct), byRow(desc.Hist, covPart)
	} else {
		// Primitive descendant-based (Fig 6), against the ancestor
		// estimate's non-zero cells.
		est, _ = EstimateDescendantBased(anc.Est, desc.Est)
		hist = capCellwise(est, desc.Hist)
	}
	// Coverage propagation (Fig 10, case 2) applies when the descendant
	// anchor itself is no-overlap with coverage.
	var cvg *histogram.Coverage
	if desc.NoOverlap && desc.Cvg != nil {
		sc := scratchPool.Get().(*joinScratch)
		cvg = scaleCoverage(desc.Cvg, hist, desc.Hist, sc)
		scratchPool.Put(sc)
	}
	return SubPattern{Est: est, Hist: hist, Base: desc.Base, Cvg: cvg, NoOverlap: desc.NoOverlap}, nil
}

// capCellwise returns min(est, cap) per cell — participation can never
// exceed the distinct nodes available in a cell.
func capCellwise(est, capH *histogram.Position) *histogram.Position {
	caps := capH.Cursor()
	return mapCells(est.Grid(), est.NonZeroCells(), func(_ int, c histogram.Cell) float64 {
		if cp := caps.Count(c.I, c.J); c.Count > cp {
			return cp
		}
		return c.Count
	})
}

// validate panics on NaN estimates; estimation arithmetic must never
// produce them, and catching the condition early aids debugging.
func (s SubPattern) validate() error {
	var err error
	s.Est.EachNonZero(func(i, j int, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("core: estimate cell (%d,%d) is %v", i, j, v)
		}
	})
	return err
}
