// Package histogram implements the paper's summary data structures:
// position histograms over (start, end) interval-label space
// (Section 3.1), coverage histograms for no-overlap predicates
// (Section 4.2), the TRUE histogram used to normalize counts into
// probabilities, and compound-predicate histogram synthesis
// (Section 3.4). It also provides the compact sparse binary encoding
// used for the paper's storage-requirement measurements.
package histogram

import (
	"fmt"
	"math"
	"sort"
)

// Grid partitions the position axis [0, MaxPos) into buckets. The same
// partition is applied to both the start axis (X) and the end axis (Y)
// of a position histogram. Buckets are half-open: bucket i covers
// [bounds[i], bounds[i+1]).
//
// The paper's experiments use uniform grids; equi-depth boundaries
// (mentioned as tech-report/future work) are provided as an extension.
type Grid struct {
	bounds []int
}

// NewUniformGrid builds a grid with g equal-width buckets over
// [0, maxPos). g must be >= 1 and maxPos >= g.
func NewUniformGrid(g, maxPos int) (Grid, error) {
	if g < 1 {
		return Grid{}, fmt.Errorf("histogram: grid size %d < 1", g)
	}
	if maxPos < g {
		return Grid{}, fmt.Errorf("histogram: maxPos %d < grid size %d", maxPos, g)
	}
	if maxPos > math.MaxInt/g {
		// The boundary formula computes i*maxPos; reject positions that
		// would overflow it (labels are ~2× the node count in practice,
		// nowhere near this).
		return Grid{}, fmt.Errorf("histogram: maxPos %d too large for grid size %d", maxPos, g)
	}
	bounds := make([]int, g+1)
	for i := 0; i <= g; i++ {
		// Spread remainder evenly so bucket widths differ by at most 1.
		bounds[i] = i * maxPos / g
	}
	return Grid{bounds: bounds}, nil
}

// NewGrid builds a grid from explicit bucket boundaries: bounds[i] is
// the inclusive lower edge of bucket i, bounds[len-1] the exclusive
// upper edge of the position space. Boundaries must start at 0 and be
// strictly increasing. The shard subsystem uses explicit bounds to
// build document-aligned monolithic grids — grids whose buckets never
// span a document boundary — which make cross-shard estimate summation
// exact (see DESIGN.md, "Shard lifecycle").
func NewGrid(bounds []int) (Grid, error) {
	if len(bounds) < 2 {
		return Grid{}, fmt.Errorf("histogram: grid needs at least 2 boundaries, got %d", len(bounds))
	}
	if bounds[0] != 0 {
		return Grid{}, fmt.Errorf("histogram: grid boundaries must start at 0, got %d", bounds[0])
	}
	own := make([]int, len(bounds))
	copy(own, bounds)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			return Grid{}, fmt.Errorf("histogram: grid boundaries not strictly increasing at index %d", i)
		}
	}
	return Grid{bounds: own}, nil
}

// MustUniformGrid is NewUniformGrid for statically valid arguments.
func MustUniformGrid(g, maxPos int) Grid {
	grid, err := NewUniformGrid(g, maxPos)
	if err != nil {
		panic(err)
	}
	return grid
}

// NewEquiDepthGrid builds a grid whose bucket boundaries place roughly
// equal numbers of the given sample positions in each bucket. positions
// need not be sorted. This is the non-uniform-grid extension the paper
// defers to the tech report.
func NewEquiDepthGrid(g int, positions []int, maxPos int) (Grid, error) {
	if g < 1 {
		return Grid{}, fmt.Errorf("histogram: grid size %d < 1", g)
	}
	if maxPos < g {
		return Grid{}, fmt.Errorf("histogram: maxPos %d < grid size %d", maxPos, g)
	}
	if len(positions) == 0 {
		return NewUniformGrid(g, maxPos)
	}
	sorted := make([]int, len(positions))
	copy(sorted, positions)
	sort.Ints(sorted)
	bounds := make([]int, 0, g+1)
	bounds = append(bounds, 0)
	for i := 1; i < g; i++ {
		q := sorted[i*len(sorted)/g]
		if q <= bounds[len(bounds)-1] {
			q = bounds[len(bounds)-1] + 1
		}
		if q >= maxPos {
			break
		}
		bounds = append(bounds, q)
	}
	bounds = append(bounds, maxPos)
	// Degenerate samples can collapse buckets; pad with uniform splits
	// of the widest remaining bucket until we have g buckets again.
	for len(bounds) < g+1 {
		widest, at := 0, 0
		for i := 0; i+1 < len(bounds); i++ {
			if w := bounds[i+1] - bounds[i]; w > widest {
				widest, at = w, i
			}
		}
		if widest < 2 {
			break // cannot split further; fewer buckets than requested
		}
		mid := bounds[at] + widest/2
		bounds = append(bounds, 0)
		copy(bounds[at+2:], bounds[at+1:])
		bounds[at+1] = mid
	}
	return Grid{bounds: bounds}, nil
}

// Size returns the number of buckets g.
func (g Grid) Size() int { return len(g.bounds) - 1 }

// MaxPos returns the exclusive upper bound of the position space.
func (g Grid) MaxPos() int { return g.bounds[len(g.bounds)-1] }

// Bounds returns the g+1 bucket boundaries. The returned slice is
// shared; callers must not modify it.
func (g Grid) Bounds() []int { return g.bounds }

// Bucket returns the index of the bucket containing pos. pos must be in
// [0, MaxPos).
func (g Grid) Bucket(pos int) int {
	// sort.SearchInts finds the first bound > pos; the bucket is one
	// before it.
	i := sort.SearchInts(g.bounds, pos+1) - 1
	if i < 0 {
		i = 0
	}
	if i >= g.Size() {
		i = g.Size() - 1
	}
	return i
}

// Lo and Hi return the half-open extent [Lo, Hi) of bucket i.
func (g Grid) Lo(i int) int { return g.bounds[i] }
func (g Grid) Hi(i int) int { return g.bounds[i+1] }

// Equal reports whether two grids have identical boundaries. Join
// estimation requires both operand histograms to share a grid.
func (g Grid) Equal(h Grid) bool {
	if len(g.bounds) != len(h.bounds) {
		return false
	}
	for i := range g.bounds {
		if g.bounds[i] != h.bounds[i] {
			return false
		}
	}
	return true
}
