package core

import "xmlest/internal/histogram"

// PHJoin estimates the answer size of the pattern A//B from the two
// position histograms, with histA the ancestor operand and histB the
// descendant operand. It computes the same quantity as the paper's
// three-pass pH-Join pseudo-code (Fig 9, kept executable as
// PHJoinDense), but takes the partial sums at histA's non-zero cells
// from one sparse sweep over histB's (histogram.Regions): O(g + nnz)
// per call instead of O(g²). The two paths are cross-checked in tests.
func PHJoin(histA, histB *histogram.Position) (float64, error) {
	if err := checkGrids(histA, histB); err != nil {
		return 0, err
	}
	var total float64
	ancestorCoefs(histB, histA.NonZeroCells(), func(c histogram.Cell, coef float64) {
		total += c.Count * coef
	})
	return total, nil
}

// PHJoinDense is a literal transcription of Algorithm pH-Join (Fig 9 of
// the paper): the three passes of partial summation run over the dense
// inner histogram histB on every call.
//
// The three passes are:
//
//  1. column partial summations (pSum.down),
//  2. row partial summations (pSum.right) and region partial
//     summations (pSum.descendant),
//  3. per-cell multiplicative coefficients combined with the outer
//     operand's counts and summed.
//
// PHJoin computes the same quantity through the sparse formulation;
// PHJoinDense exists so the published pseudo-code itself
// stays executable and benchmarkable, and as the reference the sparse
// path is validated against.
func PHJoinDense(histA, histB *histogram.Position) (float64, error) {
	if err := checkGrids(histA, histB); err != nil {
		return 0, err
	}
	g := histB.Grid().Size()

	type pSum struct {
		self, down, right, descendant float64
	}
	ps := make([]pSum, g*g)

	// Pass 1: column summations.
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			ps[i*g+j].self = histB.Count(i, j)
			switch {
			case j == i:
				ps[i*g+j].down = 0
			case j == i+1:
				ps[i*g+j].down = ps[i*g+j-1].self
			default:
				ps[i*g+j].down = ps[i*g+j-1].self + ps[i*g+j-1].down
			}
		}
	}
	// Pass 2: row and region summations.
	for j := g - 1; j >= 0; j-- {
		for i := j; i >= 0; i-- {
			switch {
			case i == j:
				ps[i*g+j].right = 0
				ps[i*g+j].descendant = 0
			case i == j-1:
				ps[i*g+j].right = ps[(i+1)*g+j].self
				ps[i*g+j].descendant = ps[(i+1)*g+j].down
			default:
				ps[i*g+j].right = ps[(i+1)*g+j].self + ps[(i+1)*g+j].right
				ps[i*g+j].descendant = ps[(i+1)*g+j].down + ps[(i+1)*g+j].descendant
			}
		}
	}
	// Pass 3: combine with the outer operand.
	var total float64
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			var r float64
			if i == j {
				r = histA.Count(i, j) * ps[i*g+j].self / 12
			} else {
				r = histA.Count(i, j) * (ps[i*g+j].descendant +
					ps[i*g+j].self/4 +
					ps[i*g+j].down - ps[i*g+i].self/2 +
					ps[i*g+j].right - ps[j*g+j].self/2)
			}
			total += r
		}
	}
	return total, nil
}
