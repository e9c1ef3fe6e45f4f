package histogram

import (
	"fmt"
	"slices"
	"sync"

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
// A Position is immutable: it holds only its non-zero cells, in (i, j)
// order, and its total, so a histogram costs O(nnz) memory whatever the
// grid size. Builders that count into cells go through an Accumulator.
type Position struct {
	grid  Grid
	cells []Cell
	total float64
}

// NewPosition returns the histogram whose non-zero cells are cells,
// which must be in (i, j) order without zero counts; it takes ownership
// of the slice. The total is the cells' sum in that order.
func NewPosition(grid Grid, cells []Cell) *Position {
	h := &Position{grid: grid, cells: cells}
	for _, c := range cells {
		h.total += c.Count
	}
	return h
}

// Accumulator sums values into the cells of a g-bucket grid: a pooled
// g×g scratch plane, all zero between uses, and the list of cells
// touched since the last drain, so emitting the non-zero cells costs
// O(touched) rather than O(g²). It keeps the running total of every
// value added, in the order added.
type Accumulator struct {
	g       int
	plane   []float64
	touched []int
	total   float64
}

var accumulatorPool = sync.Pool{New: func() any { return new(Accumulator) }}

// NewAccumulator returns an empty accumulator over a g-bucket grid. Call
// Position or Release to return its scratch.
func NewAccumulator(g int) *Accumulator {
	a := accumulatorPool.Get().(*Accumulator)
	if len(a.plane) < g*g {
		a.plane = make([]float64, g*g)
	}
	a.g = g
	return a
}

// Add adds v to cell (i, j) and to the total.
func (a *Accumulator) Add(i, j int, v float64) {
	idx := i*a.g + j
	if a.plane[idx] == 0 {
		a.touched = append(a.touched, idx)
	}
	a.plane[idx] += v
	a.total += v
}

// Cells appends the accumulated non-zero cells to dst in (i, j) order
// and returns it, leaving the accumulator empty (total included) for
// reuse.
func (a *Accumulator) Cells(dst []Cell) []Cell {
	slices.Sort(a.touched)
	for x, idx := range a.touched {
		// A cell summed back to zero and touched again is listed twice.
		if x > 0 && idx == a.touched[x-1] {
			continue
		}
		if v := a.plane[idx]; v != 0 {
			dst = append(dst, Cell{I: idx / a.g, J: idx % a.g, Count: v})
		}
		a.plane[idx] = 0
	}
	a.touched = a.touched[:0]
	a.total = 0
	return dst
}

// Position returns the accumulated histogram on grid, whose total is the
// running total of the values added, and releases the accumulator.
func (a *Accumulator) Position(grid Grid) *Position {
	total := a.total
	h := &Position{grid: grid, cells: a.Cells(make([]Cell, 0, len(a.touched))), total: total}
	a.Release()
	return h
}

// Release clears the accumulator and returns its scratch to the pool;
// the accumulator must not be used afterwards.
func (a *Accumulator) Release() {
	for _, idx := range a.touched {
		a.plane[idx] = 0
	}
	a.touched = a.touched[:0]
	a.total = 0
	accumulatorPool.Put(a)
}

// BuildPosition constructs the position histogram of the given node list
// over the grid. The node list is typically a catalog entry's satisfying
// set.
func BuildPosition(t *xmltree.Tree, nodes []xmltree.NodeID, grid Grid) *Position {
	acc := NewAccumulator(grid.Size())
	for _, id := range nodes {
		n := t.Node(id)
		acc.Add(grid.Bucket(n.Start), grid.Bucket(n.End), 1)
	}
	return acc.Position(grid)
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

// buildFromCells counts nodes id(0..n-1) into their cells.
func buildFromCells(nc *NodeCells, n int, id func(k int) int) *Position {
	acc := NewAccumulator(nc.grid.Size())
	for k := 0; k < n; k++ {
		node := id(k)
		acc.Add(int(nc.I[node]), int(nc.J[node]), 1)
	}
	return acc.Position(nc.grid)
}

// Grid returns the histogram's grid.
func (h *Position) Grid() Grid { return h.grid }

// Count returns the count in cell (i, j), by binary search over the
// non-zero cells.
func (h *Position) Count(i, j int) float64 {
	lo, hi := 0, len(h.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if before(h.cells[m], i, j) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(h.cells) && h.cells[lo].I == i && h.cells[lo].J == j {
		return h.cells[lo].Count
	}
	return 0
}

// Cursor returns a cursor over the histogram's non-zero cells.
func (h *Position) Cursor() CellCursor { return CellCursor{cells: h.cells} }

// CellCursor reads a histogram's non-zero cells at ascending cells in
// one pass, in place of a Count lookup per cell. It gallops: a lookup
// that skips k cells costs O(log k), so walking a sparse histogram's
// cells against a dense one costs O(sparse · log(dense/sparse)), not
// O(dense).
type CellCursor struct {
	cells []Cell
	at    int
}

// Count returns the count at cell (i, j), or zero; successive calls
// must ask for ascending (i, j) cells.
func (c *CellCursor) Count(i, j int) float64 {
	cells, lo := c.cells, c.at
	if lo < len(cells) && before(cells[lo], i, j) {
		// Double the step until it passes (i, j), then binary search
		// the last step: cells[lo] is before (i, j), cells[hi] is not.
		step := 1
		for lo+step < len(cells) && before(cells[lo+step], i, j) {
			lo += step
			step *= 2
		}
		hi := min(lo+step, len(cells))
		for hi-lo > 1 {
			if m := int(uint(lo+hi) >> 1); before(cells[m], i, j) {
				lo = m
			} else {
				hi = m
			}
		}
		c.at = hi
	}
	if c.at < len(cells) && cells[c.at].I == i && cells[c.at].J == j {
		return cells[c.at].Count
	}
	return 0
}

// before reports whether cell c precedes cell (i, j) in (i, j) order.
func before(c Cell, i, j int) bool { return c.I < i || c.I == i && c.J < j }

// Total returns the sum over all cells.
func (h *Position) Total() float64 { return h.total }

// NonZero returns the number of cells with a non-zero count (the
// quantity Theorem 1 bounds by O(g)).
func (h *Position) NonZero() int {
	return len(h.cells)
}

// Scaled returns the histogram with every cell multiplied by f and the
// total multiplied by f. Cells scaled to zero leave it.
func (h *Position) Scaled(f float64) *Position {
	cells := make([]Cell, 0, len(h.cells))
	for _, c := range h.cells {
		if c.Count *= f; c.Count != 0 {
			cells = append(cells, c)
		}
	}
	return &Position{grid: h.grid, cells: cells, total: h.total * f}
}

// NonZeroCells returns the histogram's non-zero cells in (i, j) order —
// the representation whose size Theorem 1 bounds by O(g) for built
// histograms. Callers must not modify the returned slice.
func (h *Position) NonZeroCells() []Cell {
	return h.cells
}

// EachNonZero calls fn for every non-zero cell in (i, j) order.
func (h *Position) EachNonZero(fn func(i, j int, count float64)) {
	for _, c := range h.cells {
		fn(c.I, c.J, c.Count)
	}
}

// CheckLemma1 verifies Lemma 1 on a built histogram: no two non-zero
// cells a and b may satisfy a.I < b.I < a.J < b.J, for a node starting
// strictly inside another node's span but ending beyond it would
// partially overlap it. Estimated histograms need not satisfy the
// lemma; built ones must. It compares every pair of non-zero cells,
// O(nnz²), and returns an error naming the first violation.
func (h *Position) CheckLemma1() error {
	for _, a := range h.cells {
		for _, b := range h.cells {
			if a.I < b.I && b.I < a.J && a.J < b.J {
				return fmt.Errorf("histogram: lemma 1 violated: (%d,%d) and (%d,%d) both non-zero", a.I, a.J, b.I, b.J)
			}
		}
	}
	return nil
}

// validateJoinOperands checks that two histograms share a grid.
func validateJoinOperands(a, b *Position) error {
	if !a.grid.Equal(b.grid) {
		return fmt.Errorf("histogram: operands have different grids (%d vs %d buckets)", a.grid.Size(), b.grid.Size())
	}
	return nil
}
