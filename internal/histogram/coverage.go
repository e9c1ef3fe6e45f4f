package histogram

import (
	"cmp"
	"fmt"
	"slices"

	"xmlest/internal/xmltree"
)

// cellKey packs a (i, j) grid cell into one integer. Grid sizes are far
// below 1<<16, so ascending key order is ascending (i, j) order.
type cellKey uint32

func key(i, j int) cellKey { return cellKey(uint32(i)<<16 | uint32(j)) }

func (k cellKey) split() (int, int) { return int(k >> 16), int(k & 0xffff) }

// SplitCell unpacks a packed cell key from the CSR slices into its
// (i, j) grid coordinates.
func SplitCell(k uint32) (int, int) { return cellKey(k).split() }

// Coverage is the coverage histogram of Section 4.2 for a predicate P
// with the no-overlap property: Cvg[i][j][m][n] is the fraction of the
// nodes in grid cell (i, j) (all nodes, the TRUE population) that are
// descendants of some node satisfying P that falls in grid cell (m, n).
//
// Because P has no-overlap, every node has at most one P-ancestor among
// maximal P-nodes, so for fixed (i, j) the fractions over all (m, n) sum
// to at most 1.
//
// The histogram is immutable and stored in compressed-sparse-row form,
// holding only non-zero fractions (Theorem 2 guarantees that only O(g)
// cell pairs have partial coverage):
//
//	vCell[r]                     the r-th covered cell, ascending
//	rowStart[r]..rowStart[r+1]   the r-th row's slice of aCell/frac
//	aCell[k], frac[k]            ancestor cell and fraction, aCell
//	                             ascending within each row
//
// The sorted order makes every iteration, and so every floating-point
// accumulation over it, deterministic. StorageBytes reports the
// encoding size of the partial cells only, since full cells are
// reconstructible from the position histogram.
type Coverage struct {
	grid     Grid
	vCell    []uint32
	rowStart []uint32
	aCell    []uint32
	frac     []float64
}

// newCoverage returns an empty coverage histogram with room for the
// given rows and entries; the three index slices share one backing
// array.
func newCoverage(grid Grid, rows, entries int) *Coverage {
	idx := make([]uint32, 2*rows+1+entries)
	return &Coverage{
		grid:     grid,
		vCell:    idx[:0:rows],
		rowStart: idx[rows : rows+1 : 2*rows+1],
		aCell:    idx[2*rows+1 : 2*rows+1],
		frac:     make([]float64, 0, entries),
	}
}

// add appends Cvg[v][a] = f. Entries must arrive in ascending (v, a)
// order.
func (c *Coverage) add(v, a uint32, f float64) {
	if n := len(c.vCell); n == 0 || c.vCell[n-1] != v {
		c.vCell = append(c.vCell, v)
		c.rowStart = append(c.rowStart, uint32(len(c.aCell)))
	}
	c.aCell = append(c.aCell, a)
	c.frac = append(c.frac, f)
	c.rowStart[len(c.rowStart)-1] = uint32(len(c.aCell))
}

// entry is one coverage fraction keyed by packed covered and ancestor
// cells.
type entry struct {
	v, a uint32
	f    float64
}

func cmpEntry(x, y entry) int {
	if x.v != y.v {
		return cmp.Compare(x.v, y.v)
	}
	return cmp.Compare(x.a, y.a)
}

// fromSorted builds a coverage histogram from entries in ascending
// (v, a) order.
func fromSorted(grid Grid, es []entry) *Coverage {
	rows := 0
	for x := range es {
		if x == 0 || es[x].v != es[x-1].v {
			rows++
		}
	}
	c := newCoverage(grid, rows, len(es))
	for _, e := range es {
		c.add(e.v, e.a, e.f)
	}
	return c
}

// BuildCoverage constructs the exact coverage histogram for the
// predicate whose satisfying nodes are given (sorted by start, as
// catalog entries are). The predicate must have the no-overlap property;
// BuildCoverage returns an error if a nested pair is encountered, since
// coverage semantics (unique covering ancestor) would not hold.
//
// trueHist must be the TRUE histogram on the same grid; it supplies the
// per-cell population denominators.
func BuildCoverage(t *xmltree.Tree, pnodes []xmltree.NodeID, trueHist *Position) (*Coverage, error) {
	if g := trueHist.Grid().Size(); g > MaxGridSize {
		return nil, fmt.Errorf("histogram: grid size %d exceeds the supported maximum %d", g, MaxGridSize)
	}
	return BuildCoverageFromCells(t, pnodes, trueHist, ComputeNodeCells(t, trueHist.Grid()))
}

// BuildCoverageFromCells is BuildCoverage with the per-node grid cells
// precomputed (see ComputeNodeCells), so the sweep does no bucket
// searches and no per-node map operations.
//
// Because node ids follow pre-order and intervals nest, the proper
// descendants of a P-node occupy the contiguous id range just after it,
// so the sweep visits only covered nodes — O(|P| + covered) rather than
// one pass over the whole tree. Leaf-tag predicates cover nothing and
// cost O(|P|). P-nodes do not nest, so sorted by start they are sorted
// by end too, and P-nodes sharing an ancestor cell are consecutive:
// each such run counts its descendants into one reused Accumulator and
// emits its entries before the next run starts; the entries are sorted
// once at the end.
func BuildCoverageFromCells(t *xmltree.Tree, pnodes []xmltree.NodeID, trueHist *Position, nc *NodeCells) (*Coverage, error) {
	grid := trueHist.Grid()
	acc := NewAccumulator(grid.Size())
	defer acc.Release()
	var (
		run []Cell
		out []entry
	)
	cellOf := func(id xmltree.NodeID) uint32 { return uint32(key(int(nc.I[id]), int(nc.J[id]))) }
	for cursor := 0; cursor < len(pnodes); cursor++ {
		p := t.Node(pnodes[cursor])
		// pnodes is start-sorted, so any P-node nested inside p would be
		// the immediately following one.
		if cursor+1 < len(pnodes) {
			if next := t.Node(pnodes[cursor+1]); next.Start < p.End {
				return nil, fmt.Errorf("histogram: BuildCoverage on overlapping predicate (node %d nested)", pnodes[cursor+1])
			}
		}
		// The proper descendants of p: ids after p while starts stay
		// inside p's interval (their ends nest inside automatically).
		for id := int(pnodes[cursor]) + 1; id < len(t.Nodes) && t.Nodes[id].Start < p.End; id++ {
			acc.Add(int(nc.I[id]), int(nc.J[id]), 1)
		}
		if a := cellOf(pnodes[cursor]); cursor+1 == len(pnodes) || cellOf(pnodes[cursor+1]) != a {
			run = acc.Cells(run[:0])
			for _, c := range run {
				if pop := trueHist.Count(c.I, c.J); pop > 0 {
					out = append(out, entry{uint32(key(c.I, c.J)), a, c.Count / pop})
				}
			}
		}
	}
	slices.SortFunc(out, cmpEntry)
	return fromSorted(grid, out), nil
}

// CoverageEntry is one coverage fraction: Cvg[I][J][M][N] = Frac.
type CoverageEntry struct {
	I, J, M, N int
	Frac       float64
}

// NewCoverageFromEntries builds a coverage histogram from entries in any
// order, with the semantics of assigning them in turn: a later entry
// for the same cell pair replaces an earlier one, and a zero fraction
// leaves no entry. Cells must lie on the grid.
func NewCoverageFromEntries(grid Grid, entries []CoverageEntry) *Coverage {
	es := make([]entry, len(entries))
	for x, e := range entries {
		es[x] = entry{uint32(key(e.I, e.J)), uint32(key(e.M, e.N)), e.Frac}
	}
	slices.SortStableFunc(es, cmpEntry)
	// Keep the last entry of each cell pair, then drop zeros.
	kept := es[:0]
	for x, e := range es {
		if x+1 < len(es) && cmpEntry(es[x+1], e) == 0 {
			continue
		}
		if e.f != 0 {
			kept = append(kept, e)
		}
	}
	return fromSorted(grid, kept)
}

// Scaled returns a copy with every entry Cvg[i][j][m][n] multiplied by
// ratio[m*g+n], a dense g×g plane over the ancestor cells — the
// participation-ratio propagation of Fig 10. Entries whose ratio is not
// positive, or whose product is zero, are dropped; the rest keep their
// order.
func (c *Coverage) Scaled(ratio []float64) *Coverage {
	g := c.grid.Size()
	out := newCoverage(c.grid, len(c.vCell), len(c.aCell))
	for r, v := range c.vCell {
		for k := c.rowStart[r]; k < c.rowStart[r+1]; k++ {
			m, n := cellKey(c.aCell[k]).split()
			if x := ratio[m*g+n]; x > 0 {
				if f := c.frac[k] * x; f != 0 {
					out.add(v, c.aCell[k], f)
				}
			}
		}
	}
	return out
}

// Grid returns the coverage histogram's grid.
func (c *Coverage) Grid() Grid { return c.grid }

// CSR exposes the raw parallel slices for allocation-free iteration:
// for each row r, vCell[r] is the covered cell and the half-open range
// rowStart[r]..rowStart[r+1] indexes aCell/frac. Callers must treat
// every slice as read-only.
func (c *Coverage) CSR() (vCell, rowStart, aCell []uint32, frac []float64) {
	return c.vCell, c.rowStart, c.aCell, c.frac
}

// Row returns the CSR row index of covered cell (i, j), or -1.
func (c *Coverage) Row(i, j int) int {
	r, ok := slices.BinarySearch(c.vCell, uint32(key(i, j)))
	if !ok {
		return -1
	}
	return r
}

// EachFrac calls fn for every stored (non-zero) coverage entry, in
// ascending (i, j, m, n) order.
func (c *Coverage) EachFrac(fn func(i, j, m, n int, f float64)) {
	for r, v := range c.vCell {
		i, j := cellKey(v).split()
		for k := c.rowStart[r]; k < c.rowStart[r+1]; k++ {
			m, n := cellKey(c.aCell[k]).split()
			fn(i, j, m, n, c.frac[k])
		}
	}
}

// PartialCells returns the number of stored cell pairs whose coverage is
// strictly between 0 and 1 — the quantity Theorem 2 bounds by O(g).
func (c *Coverage) PartialCells() int {
	const eps = 1e-12
	n := 0
	for _, f := range c.frac {
		if f > eps && f < 1-eps {
			n++
		}
	}
	return n
}

// Entries returns the total number of stored (non-zero) entries.
func (c *Coverage) Entries() int { return len(c.frac) }
