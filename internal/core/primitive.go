package core

import (
	"fmt"

	"xmlest/internal/histogram"
)

// The Fig 6 estimation formulas consume region sums of one operand
// histogram. Those sums (column, row, inside and prefix planes) are
// computed once per histogram and cached on the Position itself
// (histogram.Position.Sums), so a join against a histogram that has
// already participated in any join is O(nnz of the other operand): the
// per-cell coefficients below are O(1) lookups into the cached planes.
// See DESIGN.md, "Summary pipeline & performance".

// ancestorCoef returns the Fig 6 ancestor-based multiplicative
// coefficient for ancestor cell (i, j) against the descendant
// histogram's sums: the expected number of descendant-histogram points
// joining with one point in (i, j).
func ancestorCoef(s *histogram.Sums, i, j int) float64 {
	return ancestorCoefOf(s.Region(i, j), i == j, s.Self(i, i), s.Self(j, j))
}

// ancestorCoefOf is ancestorCoef from the cell's region sums r and the
// diagonal cells selfII = H[i][i] and selfJJ = H[j][j].
func ancestorCoefOf(r histogram.Region, diagonal bool, selfII, selfJJ float64) float64 {
	if diagonal {
		return r.Self / 12
	}
	return r.Inside +
		r.Down - selfII/2 +
		r.Right - selfJJ/2 +
		r.Self/4
}

// descendantCoef returns the Fig 6 descendant-based coefficient for
// descendant cell (i, j) against the ancestor histogram's sums: the
// expected number of ancestor-histogram points joining with one point
// in (i, j). Regions F (same column, above), G (strictly up-left) and
// H (same row, left) count with weight 1; the cell itself with 1/4
// off-diagonal and 1/12 on-diagonal.
func descendantCoef(s *histogram.Sums, i, j int) float64 {
	g := s.GridSize()
	self := s.Self(i, j)
	selfW := 0.25
	if i == j {
		selfW = 1.0 / 12
	}
	return s.Rect(0, i-1, j+1, g-1) + // G: strictly up-left block
		s.Rect(i, i, j+1, g-1) + // F: same start column, ending above
		s.Rect(0, i-1, j, j) + // H: same end row, starting left
		selfW*self
}

// EstimateAncestorBased computes the Fig 6 ancestor-based estimation
// histogram for the pattern P1//P2: cell (i, j) holds the estimated
// number of (ancestor, descendant) pairs whose ancestor falls in cell
// (i, j) of histA. histA and histB must share a grid. Only histA's
// non-zero cells are visited, against histB's cached sums.
func EstimateAncestorBased(histA, histB *histogram.Position) (*histogram.Position, error) {
	if err := checkGrids(histA, histB); err != nil {
		return nil, err
	}
	s := histB.Sums()
	out := histogram.NewPosition(histA.Grid())
	for _, c := range histA.NonZeroCells() {
		if est := c.Count * ancestorCoef(s, c.I, c.J); est != 0 {
			out.Set(c.I, c.J, est)
		}
	}
	return out, nil
}

// EstimateDescendantBased computes the Fig 6 descendant-based estimation
// histogram for P1//P2: cell (i, j) holds the estimated number of pairs
// whose descendant falls in cell (i, j) of histB.
func EstimateDescendantBased(histA, histB *histogram.Position) (*histogram.Position, error) {
	if err := checkGrids(histA, histB); err != nil {
		return nil, err
	}
	s := histA.Sums()
	out := histogram.NewPosition(histB.Grid())
	for _, c := range histB.NonZeroCells() {
		if est := c.Count * descendantCoef(s, c.I, c.J); est != 0 {
			out.Set(c.I, c.J, est)
		}
	}
	return out, nil
}

// AncestorCoefficients returns the per-cell multiplicative coefficients
// derived from a descendant histogram — the pre-computation space-time
// trade-off the paper describes after Fig 9: the coefficients can be
// computed once per histogram and stored (in space comparable to the
// histogram itself), after which any join against that descendant
// reduces to a cell-wise multiply-accumulate.
func AncestorCoefficients(histB *histogram.Position) *histogram.Position {
	s := histB.Sums()
	g := histB.Grid().Size()
	out := histogram.NewPosition(histB.Grid())
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if c := ancestorCoef(s, i, j); c != 0 {
				out.Set(i, j, c)
			}
		}
	}
	return out
}

func checkGrids(a, b *histogram.Position) error {
	if !a.Grid().Equal(b.Grid()) {
		return fmt.Errorf("core: operand histograms have different grids (%d vs %d buckets)",
			a.Grid().Size(), b.Grid().Size())
	}
	return nil
}
