package histogram

import "fmt"

// Compound-predicate histogram synthesis (Section 3.4): when a query
// predicate is a boolean combination of basic predicates, its position
// histogram is estimated from the component histograms, assuming
// independence between components within each grid cell. Counts are
// converted to probabilities by dividing by the TRUE histogram's cell
// count and converted back after combination.

// SynthesizeAnd estimates the histogram of the conjunction of the given
// predicates' histograms: p = Π p_k per cell.
func SynthesizeAnd(trueHist *Position, parts ...*Position) (*Position, error) {
	return synthesize(trueHist, parts, func(ps []float64) float64 {
		p := 1.0
		for _, x := range ps {
			p *= x
		}
		return p
	})
}

// SynthesizeOr estimates the histogram of the disjunction:
// p = 1 - Π (1 - p_k) per cell. For disjoint predicates (such as the
// paper's per-year primitives combined into "1990's"), callers may
// instead Sum the histograms exactly.
func SynthesizeOr(trueHist *Position, parts ...*Position) (*Position, error) {
	return synthesize(trueHist, parts, func(ps []float64) float64 {
		q := 1.0
		for _, x := range ps {
			q *= 1 - x
		}
		return 1 - q
	})
}

// SynthesizeNot estimates the histogram of the negation: p = 1 - p_in.
func SynthesizeNot(trueHist *Position, inner *Position) (*Position, error) {
	return synthesize(trueHist, []*Position{inner}, func(ps []float64) float64 {
		return 1 - ps[0]
	})
}

// Sum adds histograms cell-wise. It is the exact combination for
// mutually exclusive predicates (no node satisfies two of them), which
// is how the paper's compound decade predicates are built from per-year
// primitives.
func Sum(parts ...*Position) (*Position, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("histogram: Sum of no histograms")
	}
	for _, p := range parts[1:] {
		if err := validateJoinOperands(parts[0], p); err != nil {
			return nil, err
		}
	}
	acc := NewAccumulator(parts[0].grid.Size())
	for _, c := range parts[0].cells {
		acc.Add(c.I, c.J, c.Count)
	}
	// The total continues the first part's own total.
	acc.total = parts[0].total
	for _, p := range parts[1:] {
		for _, c := range p.cells {
			acc.Add(c.I, c.J, c.Count)
		}
	}
	return acc.Position(parts[0].grid), nil
}

func synthesize(trueHist *Position, parts []*Position, combine func([]float64) float64) (*Position, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("histogram: synthesize with no parts")
	}
	for _, p := range parts {
		if err := validateJoinOperands(trueHist, p); err != nil {
			return nil, err
		}
	}
	var cells []Cell
	ps := make([]float64, len(parts))
	// Only the TRUE histogram's non-zero cells can contribute (the cell
	// population is the denominator), so the result is built in their
	// (i, j) order, reading each part once through a cursor.
	cursors := make([]CellCursor, len(parts))
	for k, part := range parts {
		cursors[k] = part.Cursor()
	}
	for _, tc := range trueHist.cells {
		pop := tc.Count
		if pop <= 0 {
			continue
		}
		for k := range cursors {
			p := cursors[k].Count(tc.I, tc.J) / pop
			if p < 0 {
				p = 0
			}
			if p > 1 {
				p = 1
			}
			ps[k] = p
		}
		if c := combine(ps) * pop; c != 0 {
			cells = append(cells, Cell{I: tc.I, J: tc.J, Count: c})
		}
	}
	return NewPosition(trueHist.grid, cells), nil
}
