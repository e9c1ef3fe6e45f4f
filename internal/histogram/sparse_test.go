package histogram

import (
	"math"
	"math/rand"
	"testing"

	"xmlest/internal/xmltree"
)

// randomPosition fills a histogram with random fractional counts in the
// upper triangle (the shape estimation intermediaries have).
func randomPosition(r *rand.Rand, g int) *Position {
	grid := MustUniformGrid(g, 4*g)
	plane := make([]float64, g*g)
	for i := 0; i < g; i++ {
		for j := i; j < g; j++ {
			if r.Intn(3) != 0 {
				plane[i*g+j] = float64(r.Intn(50)) / 3
			}
		}
	}
	return fromPlane(grid, plane)
}

func TestNonZeroCellsMatchEachNonZero(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := randomPosition(r, 2+r.Intn(12))
		var want []Cell
		h.EachNonZero(func(i, j int, c float64) {
			want = append(want, Cell{I: i, J: j, Count: c})
		})
		got := h.NonZeroCells()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d cell %d: %+v, want %+v", trial, k, got[k], want[k])
			}
		}
	}
}

// TestCellCursorMatchesCount walks ascending cells of random sparsity —
// every cell, a random subset, runs that skip far ahead — and requires
// the cursor to read exactly what Count reads.
func TestCellCursorMatchesCount(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := 1 + r.Intn(20)
		h := randomPosition(r, g)
		keep := 1 + r.Intn(g*g)
		cur := h.Cursor()
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if r.Intn(keep) != 0 {
					continue
				}
				if got, want := cur.Count(i, j), h.Count(i, j); got != want {
					t.Fatalf("trial %d (g=%d) cell (%d,%d): cursor %v, Count %v", trial, g, i, j, got, want)
				}
			}
		}
		if got := cur.Count(g, 0); got != 0 {
			t.Fatalf("trial %d: cursor past the last cell read %v", trial, got)
		}
	}
}

// TestSumsMatchBruteForce checks every reference plane against direct
// summation of the definitions.
func TestSumsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := 2 + r.Intn(10)
		h := randomPosition(r, g)
		s := newSums(h)
		for i := 0; i < g; i++ {
			for j := i; j < g; j++ {
				var down, right, inside, tri float64
				for l := i; l < j; l++ {
					down += h.Count(i, l)
				}
				for k := i + 1; k <= j; k++ {
					right += h.Count(k, j)
				}
				for k := i + 1; k <= j; k++ {
					for l := k; l < j; l++ {
						inside += h.Count(k, l)
					}
				}
				for m := i; m <= j; m++ {
					for n := m; n <= j; n++ {
						tri += h.Count(m, n)
					}
				}
				check := func(name string, got, want float64) {
					if diff := got - want; diff > 1e-9 || diff < -1e-9 {
						t.Fatalf("g=%d %s(%d,%d) = %v, want %v", g, name, i, j, got, want)
					}
				}
				reg := s.Region(i, j)
				check("Self", reg.Self, h.Count(i, j))
				check("Down", reg.Down, down)
				check("Right", reg.Right, right)
				check("Inside", reg.Inside, inside)
				check("Triangle", reg.Sum(), tri)
			}
		}
	}
}

func TestComputeNodeCellsMatchesBucket(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	trees := []*xmltree.Tree{xmltree.Fig1Document()}
	for i := 0; i < 5; i++ {
		trees = append(trees, randomTree(r, 10+r.Intn(200)))
	}
	for ti, tr := range trees {
		for _, g := range []int{2, 5, 10} {
			if tr.MaxPos < g {
				continue
			}
			grid := MustUniformGrid(g, tr.MaxPos)
			nc := ComputeNodeCells(tr, grid)
			for id := 1; id < len(tr.Nodes); id++ {
				n := tr.Node(xmltree.NodeID(id))
				i, j := nc.Cell(xmltree.NodeID(id))
				if i != grid.Bucket(n.Start) || j != grid.Bucket(n.End) {
					t.Fatalf("tree %d g=%d node %d: cell (%d,%d), want (%d,%d)",
						ti, g, id, i, j, grid.Bucket(n.Start), grid.Bucket(n.End))
				}
			}
		}
	}
}

func TestBuildFromCellsMatchesDirectBuilders(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		tr := randomTree(r, 20+r.Intn(300))
		g := 2 + r.Intn(8)
		if tr.MaxPos < g {
			continue
		}
		grid := MustUniformGrid(g, tr.MaxPos)
		nc := ComputeNodeCells(tr, grid)

		if want, got := BuildTrue(tr, grid), BuildTrueFromCells(nc); !positionsEqual(want, got) {
			t.Fatalf("trial %d: BuildTrueFromCells differs from BuildTrue", trial)
		}
		for _, tag := range []string{"a", "b", "c", "d"} {
			nodes := tr.NodesWithTag(tag)
			want := BuildPosition(tr, nodes, grid)
			got := BuildPositionFromCells(nc, nodes)
			if !positionsEqual(want, got) {
				t.Fatalf("trial %d tag %s: BuildPositionFromCells differs", trial, tag)
			}
		}
	}
}

func positionsEqual(a, b *Position) bool {
	if !a.Grid().Equal(b.Grid()) || a.Total() != b.Total() {
		return false
	}
	g := a.Grid().Size()
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			if a.Count(i, j) != b.Count(i, j) {
				return false
			}
		}
	}
	return true
}

// TestCoverageMatchesParentChainBruteForce validates the range-sweep
// coverage construction against the definition: Cvg[v][a] is the
// fraction of all nodes in cell v whose (unique, by no-overlap)
// P-ancestor falls in cell a.
func TestCoverageMatchesParentChainBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 24; trial++ {
		tr := randomTree(r, 20+r.Intn(300))
		g := 2 + r.Intn(8)
		if trial%4 == 3 {
			// Exercise the sparse-plane fallback for large grids.
			g = 129 + r.Intn(40)
		}
		if tr.MaxPos < g {
			continue
		}
		grid := MustUniformGrid(g, tr.MaxPos)
		trueHist := BuildTrue(tr, grid)

		// Pick a tag; skip overlapping predicates (BuildCoverage rejects
		// them, which TestCoverageRequiresNoOverlap already asserts).
		pnodes := tr.NodesWithTag("a")
		isP := make(map[xmltree.NodeID]bool, len(pnodes))
		overlapping := false
		for _, id := range pnodes {
			isP[id] = true
		}
		for _, id := range pnodes {
			for p := tr.Node(id).Parent; p > 0; p = tr.Node(p).Parent {
				if isP[p] {
					overlapping = true
				}
			}
		}
		if overlapping || len(pnodes) == 0 {
			continue
		}

		cov, err := BuildCoverage(tr, pnodes, trueHist)
		if err != nil {
			t.Fatalf("trial %d: BuildCoverage: %v", trial, err)
		}

		want := make(map[cellKey]map[cellKey]float64)
		for id := 1; id < len(tr.Nodes); id++ {
			if isP[xmltree.NodeID(id)] {
				continue // a P-node is not its own descendant
			}
			for p := tr.Node(xmltree.NodeID(id)).Parent; p > 0; p = tr.Node(p).Parent {
				if isP[p] {
					n := tr.Node(xmltree.NodeID(id))
					pn := tr.Node(p)
					v := key(grid.Bucket(n.Start), grid.Bucket(n.End))
					a := key(grid.Bucket(pn.Start), grid.Bucket(pn.End))
					if want[v] == nil {
						want[v] = make(map[cellKey]float64)
					}
					want[v][a]++
					break
				}
			}
		}
		var checked int
		for v, byA := range want {
			i, j := v.split()
			pop := trueHist.Count(i, j)
			for a, c := range byA {
				m, n := a.split()
				got := fracOf(cov, i, j, m, n)
				wantF := c / pop
				if diff := got - wantF; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("trial %d: Frac(%d,%d,%d,%d) = %v, want %v", trial, i, j, m, n, got, wantF)
				}
				checked++
			}
		}
		if got := cov.Entries(); got != checked {
			t.Fatalf("trial %d: %d stored entries, brute force found %d", trial, got, checked)
		}
	}
}

// TestEachFracDeterministicOrder asserts the sorted iteration order the
// estimation arithmetic relies on for reproducible floating-point
// accumulation.
func TestEachFracDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	entries := make([]CoverageEntry, 50)
	for k := range entries {
		entries[k] = CoverageEntry{r.Intn(6), r.Intn(6), r.Intn(6), r.Intn(6), r.Float64()}
	}
	cov := NewCoverageFromEntries(MustUniformGrid(6, 24), entries)
	type quad struct{ i, j, m, n int }
	var prev *quad
	cov.EachFrac(func(i, j, m, n int, _ float64) {
		cur := quad{i, j, m, n}
		if prev != nil {
			p := *prev
			if p.i > i || (p.i == i && p.j > j) ||
				(p.i == i && p.j == j && (p.m > m || (p.m == m && p.n >= n))) {
				t.Fatalf("EachFrac order violation: %+v before %+v", p, cur)
			}
		}
		prev = &cur
	})
}

// TestRegionsMatchSums: the plane-free partial sums equal the Sums
// planes bit for bit, for built and fractional histograms, at every
// upper-triangle query cell.
func TestRegionsMatchSums(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		g := 1 + r.Intn(40)
		plane := make([]float64, g*g)
		for k, n := 0, r.Intn(3*g); k < n; k++ {
			i := r.Intn(g)
			j := i + r.Intn(g-i)
			if trial%2 == 0 {
				plane[i*g+j]++
			} else {
				plane[i*g+j] = r.ExpFloat64() / 3
			}
		}
		h := fromPlane(MustUniformGrid(g, 4*g), plane)
		var q []Cell
		for i := 0; i < g; i++ {
			for j := i; j < g; j++ {
				if r.Intn(3) == 0 {
					q = append(q, Cell{I: i, J: j})
				}
			}
		}
		out := make([]Region, len(q))
		Regions(g, h.NonZeroCells(), q, out)
		s := newSums(h)
		for x, c := range q {
			want := s.Region(c.I, c.J)
			bits := func(r Region) [4]uint64 {
				return [4]uint64{math.Float64bits(r.Self), math.Float64bits(r.Down), math.Float64bits(r.Right), math.Float64bits(r.Inside)}
			}
			if bits(out[x]) != bits(want) {
				t.Fatalf("trial %d g=%d cell (%d,%d): %+v, Sums %+v", trial, g, c.I, c.J, out[x], want)
			}
		}
	}
}
