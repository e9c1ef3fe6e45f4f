package histogram

import (
	"fmt"
	"slices"
	"sync"

	"xmlest/internal/xmltree"
)

// MaxGridSize is the largest grid NodeCells can represent (bucket
// indices are uint16). Grid-accepting entry points reject larger grids
// with an error before reaching NodeCells.
const MaxGridSize = 1 << 16

// Cell is one non-zero cell of a position histogram, in the sparse
// representation Theorem 1 motivates: a built histogram has O(g)
// non-zero cells, so a histogram stores and iterates only those.
type Cell struct {
	I, J  int
	Count float64
}

// Region holds the Fig 9 partial sums of a histogram H at one cell
// (i, j):
//
//	Self   = H[i][j]
//	Down   = Σ_{l=i..j-1} H[i][l]               (same start column, below)
//	Right  = Σ_{k=i+1..j} H[k][j]               (same end row, to the right)
//	Inside = Σ_{k=i+1..j} Σ_{l=k..j-1} H[k][l]  (strictly inside)
type Region struct {
	Self, Down, Right, Inside float64
}

// Sum returns Inside + Down + Right + Self: Σ_{m=i..j} Σ_{n=m..j} H[m][n],
// the descendant-region triangle the Fig 10 participation formula
// (case 2) sums over.
func (r Region) Sum() float64 { return r.Inside + r.Down + r.Right + r.Self }

type regionScratch struct {
	down           []float64 // zero between uses
	hStart, qStart []int32
	hOrder, qOrder []int32
}

var regionPool = sync.Pool{New: func() any { return new(regionScratch) }}

// Regions writes into out[x] the partial sums of a histogram at query
// cell q[x], given the histogram's non-zero cells h; h and q are in
// (i, j) order on a grid of g buckets, and every query lies on or above
// the diagonal. The values are bit-identical to the Fig 9 recurrences
// over a dense g×g plane, but no plane is built: one sweep over the end
// buckets keeps every start row's running Down sum in a g-vector, and
// the queries of each end bucket accumulate Right and Inside from the
// diagonal downward, adding the same non-zero terms in the same order
// as the dense recurrences.
// The cost is O(g + nnz) plus, per end bucket holding queries, its
// distance to the lowest query start.
func Regions(g int, h, q []Cell, out []Region) {
	sc := regionPool.Get().(*regionScratch)
	if len(sc.down) < g {
		sc.down = make([]float64, g)
		sc.hStart, sc.qStart = make([]int32, g+2), make([]int32, g+2)
	}
	sc.hOrder = byColumn(h, sc.hStart[:g+2], sc.hOrder)
	sc.qOrder = byColumn(q, sc.qStart[:g+2], sc.qOrder)
	down := sc.down[:g]
	for j := 0; j < g; j++ {
		hs := sc.hOrder[sc.hStart[j]:sc.hStart[j+1]]
		qs := sc.qOrder[sc.qStart[j]:sc.qStart[j+1]]
		var right, inside float64
		hp, k := len(hs)-1, j
		for x := len(qs) - 1; x >= 0; x-- {
			i := q[qs[x]].I
			for ; hp >= 0 && h[hs[hp]].I > i; hp-- {
				right += h[hs[hp]].Count
			}
			for ; k > i; k-- {
				inside += down[k]
			}
			r := Region{Down: down[i], Right: right, Inside: inside}
			if hp >= 0 && h[hs[hp]].I == i {
				r.Self = h[hs[hp]].Count
			}
			out[qs[x]] = r
		}
		for _, x := range hs {
			down[h[x].I] += h[x].Count
		}
	}
	clear(down)
	regionPool.Put(sc)
}

// byColumn counting-sorts cell indices by end bucket into order (grown
// as needed and returned), keeping (i, j) order within a bucket; column
// j then spans order[start[j]:start[j+1]].
func byColumn(cells []Cell, start, order []int32) []int32 {
	clear(start)
	for _, c := range cells {
		start[c.J+2]++
	}
	for j := 2; j < len(start); j++ {
		start[j] += start[j-1]
	}
	order = slices.Grow(order[:0], len(cells))[:len(cells)]
	for x, c := range cells {
		order[start[c.J+1]] = int32(x)
		start[c.J+1]++
	}
	return order
}

// NodeCells is the precomputed grid cell (start bucket, end bucket) of
// every tree node, shared by all per-predicate summary builds of one
// estimator so bucket lookups run once per node instead of once per
// node per predicate. Index 0 is the dummy root and is never consulted.
type NodeCells struct {
	grid Grid
	I, J []uint16
}

// ComputeNodeCells buckets every node of the tree once. A transient
// position→bucket lookup table makes each node O(1); positions are
// dense interval labels, so the table is ~2 bytes per position and is
// released when the function returns. Trees with unusually sparse
// labels fall back to per-node binary search.
func ComputeNodeCells(t *xmltree.Tree, grid Grid) *NodeCells {
	if grid.Size() > MaxGridSize {
		// Bucket indices are stored as uint16; silent wrap-around would
		// corrupt every downstream histogram. Error-returning entry
		// points (NewEstimator, BuildCoverage) reject such grids before
		// reaching here.
		panic(fmt.Sprintf("histogram: grid size %d exceeds %d", grid.Size(), MaxGridSize))
	}
	n := len(t.Nodes)
	nc := &NodeCells{grid: grid, I: make([]uint16, n), J: make([]uint16, n)}
	bounds := grid.Bounds()
	g := grid.Size()
	maxPos := grid.MaxPos()
	// Interval numbering assigns 2 labels per node, so a dense tree has
	// maxPos ≈ 2n; 8× covers generous label gaps before the table stops
	// paying for itself.
	if maxPos <= 8*n+1024 {
		table := make([]uint16, maxPos)
		for b := 0; b < g; b++ {
			for pos := bounds[b]; pos < bounds[b+1]; pos++ {
				table[pos] = uint16(b)
			}
		}
		for id := 1; id < n; id++ {
			node := &t.Nodes[id]
			nc.I[id] = table[node.Start]
			nc.J[id] = table[node.End]
		}
		return nc
	}
	for id := 1; id < n; id++ {
		node := &t.Nodes[id]
		nc.I[id] = uint16(grid.Bucket(node.Start))
		nc.J[id] = uint16(grid.Bucket(node.End))
	}
	return nc
}

// Grid returns the grid the cells were computed on.
func (nc *NodeCells) Grid() Grid { return nc.grid }

// Cell returns the (start bucket, end bucket) cell of a node id.
func (nc *NodeCells) Cell(id xmltree.NodeID) (int, int) {
	return int(nc.I[id]), int(nc.J[id])
}
