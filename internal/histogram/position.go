package histogram

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"xmlest/internal/xmltree"
)

// Position is a position histogram (Section 3.1): cell (i, j) counts
// the nodes satisfying a predicate whose start label falls in bucket i
// and whose end label falls in bucket j. Because start < end for every
// node, only cells with j >= i can be non-zero, and Lemma 1 further
// forbids partially-overlapping cell patterns; Theorem 1 bounds the
// number of non-zero cells by O(g).
//
// Counts are float64 because estimated histograms (the output of join
// estimation and compound-predicate synthesis) are fractional.
//
// Join results are sparse: they hold only their non-zero cells (see
// NewSparsePosition) and build the dense plane if they are mutated.
type Position struct {
	grid   Grid
	cells  []float64 // row-major: cells[i*g+j]; nil while sparse
	sparse []Cell    // a sparse histogram's cells, which nz points at
	total  float64

	// Lazily built, atomically published caches: the sparse non-zero
	// cell list and the partial/prefix summation planes. Any mutation
	// (Add, Set, Scale) invalidates both; reads rebuild on demand.
	// Concurrent readers may race to build, which only duplicates work —
	// both build identical values from the same cells.
	nz   atomic.Pointer[[]Cell]
	sums atomic.Pointer[Sums]
}

// NewPosition returns an empty histogram on the given grid.
func NewPosition(grid Grid) *Position {
	g := grid.Size()
	return &Position{grid: grid, cells: make([]float64, g*g)}
}

// NewSparsePosition returns the histogram whose non-zero cells are
// cells, which must be in (i, j) order without zero counts; it takes
// ownership of the slice. The total is the cells' sum in that order,
// as if each had been Set in turn. Lookups binary-search the cells, so
// a join result costs O(nnz) memory instead of a g×g plane.
func NewSparsePosition(grid Grid, cells []Cell) *Position {
	h := &Position{grid: grid, sparse: cells}
	for _, c := range cells {
		h.total += c.Count
	}
	h.nz.Store(&h.sparse)
	return h
}

// densify builds the dense plane of a sparse histogram before a
// mutation.
func (h *Position) densify() {
	if h.cells != nil {
		return
	}
	g := h.grid.Size()
	h.cells = make([]float64, g*g)
	for _, c := range *h.nz.Load() {
		h.cells[c.I*g+c.J] = c.Count
	}
	h.sparse = nil
}

// BuildPosition constructs the position histogram of the given node list
// over the grid. The node list is typically a catalog entry's satisfying
// set.
func BuildPosition(t *xmltree.Tree, nodes []xmltree.NodeID, grid Grid) *Position {
	h := NewPosition(grid)
	for _, id := range nodes {
		n := t.Node(id)
		h.Add(grid.Bucket(n.Start), grid.Bucket(n.End), 1)
	}
	return h
}

// BuildTrue constructs the histogram of the TRUE predicate — every node
// in the tree except the dummy root. It is the normalization constant
// for compound-predicate estimation and the population denominator for
// coverage histograms.
func BuildTrue(t *xmltree.Tree, grid Grid) *Position {
	return BuildTrueFromCells(ComputeNodeCells(t, grid))
}

// BuildPositionFromCells constructs the position histogram of a node
// list from precomputed node cells (see ComputeNodeCells), avoiding the
// per-node bucket searches of BuildPosition. It is the per-predicate
// build the estimator's construction pipeline uses: cells are computed
// once per tree and shared across every predicate.
func BuildPositionFromCells(nc *NodeCells, nodes []xmltree.NodeID) *Position {
	return buildFromCells(nc, len(nodes), func(k int) int { return int(nodes[k]) })
}

// BuildTrueFromCells constructs the TRUE histogram from precomputed
// node cells.
func BuildTrueFromCells(nc *NodeCells) *Position {
	return buildFromCells(nc, len(nc.I)-1, func(k int) int { return k + 1 })
}

// buildFromCells counts nodes id(0..n-1) into their cells. The sparse
// cell list is published as a by-product, from the cells the nodes
// touched, so a fresh histogram's first join does not scan the g×g
// plane.
func buildFromCells(nc *NodeCells, n int, id func(k int) int) *Position {
	h := NewPosition(nc.grid)
	g := nc.grid.Size()
	var touched []int
	for k := 0; k < n; k++ {
		node := id(k)
		idx := int(nc.I[node])*g + int(nc.J[node])
		if h.cells[idx] == 0 {
			touched = append(touched, idx)
		}
		h.cells[idx]++
	}
	h.total = float64(n)
	slices.Sort(touched)
	cells := make([]Cell, len(touched))
	for x, idx := range touched {
		cells[x] = Cell{I: idx / g, J: idx % g, Count: h.cells[idx]}
	}
	h.nz.Store(&cells)
	return h
}

// Grid returns the histogram's grid.
func (h *Position) Grid() Grid { return h.grid }

// Count returns the count in cell (i, j).
func (h *Position) Count(i, j int) float64 {
	if h.cells == nil {
		cells := *h.nz.Load()
		x, ok := slices.BinarySearchFunc(cells, i*h.grid.Size()+j, func(c Cell, idx int) int {
			return cmp.Compare(c.I*h.grid.Size()+c.J, idx)
		})
		if !ok {
			return 0
		}
		return cells[x].Count
	}
	return h.cells[i*h.grid.Size()+j]
}

// Add adds v to cell (i, j). v may be negative (used by estimation
// intermediaries); totals are maintained.
func (h *Position) Add(i, j int, v float64) {
	h.densify()
	h.cells[i*h.grid.Size()+j] += v
	h.total += v
	h.invalidate()
}

// Set overwrites cell (i, j).
func (h *Position) Set(i, j int, v float64) {
	h.densify()
	idx := i*h.grid.Size() + j
	h.total += v - h.cells[idx]
	h.cells[idx] = v
	h.invalidate()
}

// invalidate drops the cached sparse cell list and summation planes.
func (h *Position) invalidate() {
	h.nz.Store(nil)
	h.sums.Store(nil)
}

// Total returns the sum over all cells.
func (h *Position) Total() float64 { return h.total }

// NonZero returns the number of cells with a non-zero count (the
// quantity Theorem 1 bounds by O(g)). It reads the cached sparse cell
// list, so repeated calls on a built histogram skip the dense scan.
func (h *Position) NonZero() int {
	return len(h.NonZeroCells())
}

// Clone returns a deep copy with a dense plane.
func (h *Position) Clone() *Position {
	out := &Position{grid: h.grid, cells: slices.Clone(h.cells), total: h.total}
	if h.cells == nil {
		out.nz.Store(h.nz.Load())
		out.densify()
		out.nz.Store(nil)
	}
	return out
}

// Scale multiplies every cell by f and returns the histogram for
// chaining. A sparse histogram stays sparse: cells scaled to zero
// leave it.
func (h *Position) Scale(f float64) *Position {
	if h.cells == nil {
		cells := *h.nz.Load()
		kept := make([]Cell, 0, len(cells))
		for _, c := range cells {
			if c.Count *= f; c.Count != 0 {
				kept = append(kept, c)
			}
		}
		h.total *= f
		h.sums.Store(nil)
		h.sparse = kept
		h.nz.Store(&h.sparse)
		return h
	}
	for i := range h.cells {
		h.cells[i] *= f
	}
	h.total *= f
	h.invalidate()
	return h
}

// NonZeroCells returns the histogram's non-zero cells in (i, j) order —
// the sparse representation whose size Theorem 1 bounds by O(g) for
// built histograms. The list is computed on first use and cached until
// the histogram is mutated. Callers must not modify the returned slice.
func (h *Position) NonZeroCells() []Cell {
	if p := h.nz.Load(); p != nil {
		return *p
	}
	g := h.grid.Size()
	cells := make([]Cell, 0, 2*g)
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if c := h.cells[i*g+j]; c != 0 {
				cells = append(cells, Cell{I: i, J: j, Count: c})
			}
		}
	}
	h.nz.Store(&cells)
	return cells
}

// Sums returns the histogram's partial/prefix summation planes,
// computed on first use and cached until the histogram is mutated.
// Sharing the cached planes across joins turns each subsequent join
// against this histogram from O(g²) into O(nnz of the other operand).
func (h *Position) Sums() *Sums {
	if s := h.sums.Load(); s != nil {
		return s
	}
	s := newSums(h)
	h.sums.Store(s)
	return s
}

// EachNonZero calls fn for every non-zero cell in (i, j) order. It
// iterates the cached sparse cell list (see NonZeroCells); callers must
// not mutate the histogram from inside fn.
func (h *Position) EachNonZero(fn func(i, j int, count float64)) {
	for _, c := range h.NonZeroCells() {
		fn(c.I, c.J, c.Count)
	}
}

// CheckLemma1 verifies Lemma 1 on a built histogram: a non-zero count in
// cell (i, j) implies zero counts in (k, l) with i < k < j and j < l
// (a node starting strictly inside the first node's span but ending
// beyond it would partially overlap it), and symmetrically in (k, l)
// with k < i and i < l < j. Estimated histograms need not satisfy the
// lemma; built ones must. Returns an error naming the first violation.
func (h *Position) CheckLemma1() error {
	g := h.grid.Size()
	var err error
	h.EachNonZero(func(i, j int, _ float64) {
		if err != nil {
			return
		}
		for k := i + 1; k < j; k++ {
			for l := j + 1; l < g; l++ {
				if h.Count(k, l) != 0 {
					err = fmt.Errorf("histogram: lemma 1 violated: (%d,%d) and (%d,%d) both non-zero", i, j, k, l)
					return
				}
			}
		}
		for k := 0; k < i; k++ {
			for l := i + 1; l < j; l++ {
				if h.Count(k, l) != 0 {
					err = fmt.Errorf("histogram: lemma 1 violated: (%d,%d) and (%d,%d) both non-zero", i, j, k, l)
					return
				}
			}
		}
	})
	return err
}

// validateJoinOperands checks that two histograms share a grid.
func validateJoinOperands(a, b *Position) error {
	if !a.grid.Equal(b.grid) {
		return fmt.Errorf("histogram: operands have different grids (%d vs %d buckets)", a.grid.Size(), b.grid.Size())
	}
	return nil
}
