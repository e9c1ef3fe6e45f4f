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
// The leaf shares the base histogram directly instead of cloning it:
// joins never mutate their operands, so sharing keeps the base's cached
// partial sums and sparse cell list (histogram.Position.Sums and
// NonZeroCells) warm across every estimate that touches the predicate.
// Sub-pattern histograms must therefore be treated as read-only by all
// downstream code; join results are always freshly allocated, and they
// are sparse (histogram.NewSparsePosition): each holds only its
// non-zero cells.
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
// allocates only its results. plane is a dense g×g accumulator that is
// all zero between uses; callers clear the cells they touch, and a
// join returns its scratch to the pool only when it completes.
type joinScratch struct {
	plane   []float64
	touched []int
	regions []histogram.Region
}

var scratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

func (sc *joinScratch) regionsFor(n int) []histogram.Region {
	sc.regions = slices.Grow(sc.regions[:0], n)[:n]
	return sc.regions
}

func (sc *joinScratch) planeFor(g int) []float64 {
	if len(sc.plane) < g*g {
		sc.plane = make([]float64, g*g)
	}
	return sc.plane[:g*g]
}

// cellCursor reads a histogram's non-zero cells at ascending cells in
// one pass, in place of a lookup per cell.
type cellCursor struct {
	cells []histogram.Cell
	at    int
}

// count returns the count at cell (i, j), or zero; successive calls
// must ask for ascending cells.
func (c *cellCursor) count(i, j int) float64 {
	for c.at < len(c.cells) && (c.cells[c.at].I < i || c.cells[c.at].I == i && c.cells[c.at].J < j) {
		c.at++
	}
	if c.at < len(c.cells) && c.cells[c.at].I == i && c.cells[c.at].J == j {
		return c.cells[c.at].Count
	}
	return 0
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
	return histogram.NewSparsePosition(grid, cells)
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
// Every join costs O(nnz) of its operands plus pooled scratch: results
// are emitted cell by cell in (i, j) order, and the Fig 9 partial sums
// come from histogram.Regions instead of g×g planes. Every sum adds the
// same terms in the same order as the dense formulation, so estimates
// are bit-identical to it.
func JoinAncestor(anc, desc SubPattern) (SubPattern, error) {
	if err := checkGrids(anc.Est, desc.Est); err != nil {
		return SubPattern{}, err
	}
	sc := scratchPool.Get().(*joinScratch)
	var out SubPattern
	if anc.NoOverlap && anc.Cvg != nil {
		out = joinAncestorNoOverlap(anc, desc, sc)
	} else {
		out = joinAncestorOverlap(anc, desc, sc)
	}
	scratchPool.Put(sc)
	return out, nil
}

func joinAncestorOverlap(anc, desc SubPattern, sc *joinScratch) SubPattern {
	// Primitive (Fig 6) estimation against the descendant's estimation
	// histogram: each participating ancestor node carries jnFct(anc)
	// matches of its own sub-pattern and pairs with the descendant
	// match mass in its join regions.
	q := anc.Est.NonZeroCells()
	regions := sc.regionsFor(len(q))
	histogram.Regions(anc.Est.Grid().Size(), desc.Est.NonZeroCells(), q, regions)
	est := mapCells(anc.Est.Grid(), q, func(x int, c histogram.Cell) float64 {
		return c.Count * ancestorCoefOf(regions[x], c.I == c.J, desc.Est.Count(c.I, c.I), desc.Est.Count(c.J, c.J))
	})
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
	// of the ancestor cells accumulate in the scratch plane.
	mass, touched := sc.planeFor(g), sc.touched[:0]
	descEst := cellCursor{cells: desc.Est.NonZeroCells()}
	vCell, rowStart, aCell, frac := anc.Cvg.CSR()
	for r := range vCell {
		m, n := histogram.SplitCell(vCell[r])
		e := descEst.count(m, n)
		if e == 0 {
			continue
		}
		for k := rowStart[r]; k < rowStart[r+1]; k++ {
			i, j := histogram.SplitCell(aCell[k])
			if mass[i*g+j] == 0 {
				touched = append(touched, i*g+j)
			}
			mass[i*g+j] += frac[k] * e
		}
	}
	slices.Sort(touched)
	cells := make([]histogram.Cell, 0, len(touched))
	ancEst, ancHist := cellCursor{cells: anc.Est.NonZeroCells()}, cellCursor{cells: anc.Hist.NonZeroCells()}
	for x, idx := range touched {
		if x > 0 && idx == touched[x-1] {
			continue
		}
		i, j, sum := idx/g, idx%g, mass[idx]
		mass[idx] = 0
		if sum == 0 || i > j { // a decoded coverage may name cells below the diagonal
			continue
		}
		var jnFct float64 // as SubPattern.jnFct
		if h := ancHist.count(i, j); !(h <= 0) {
			jnFct = ancEst.count(i, j) / h
		}
		if v := jnFct * sum; v != 0 {
			cells = append(cells, histogram.Cell{I: i, J: j, Count: v})
		}
	}
	sc.touched = touched
	est := histogram.NewSparsePosition(grid, cells)

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
	h := cellCursor{cells: hist.NonZeroCells()}
	for _, c := range cells {
		if c.Count > 0 {
			ratio[c.I*g+c.J] = h.count(c.I, c.J) / c.Count
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
		// estimate's summation planes.
		ps := anc.Est.Sums()
		est = mapCells(grid, desc.Est.NonZeroCells(), func(_ int, c histogram.Cell) float64 {
			return c.Count * descendantCoef(ps, c.I, c.J)
		})
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
	caps := cellCursor{cells: capH.NonZeroCells()}
	return mapCells(est.Grid(), est.NonZeroCells(), func(_ int, c histogram.Cell) float64 {
		if cp := caps.count(c.I, c.J); c.Count > cp {
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
