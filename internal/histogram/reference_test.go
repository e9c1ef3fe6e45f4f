package histogram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"xmlest/internal/xmltree"
)

// refCoverage is the earlier map-backed coverage histogram, kept as the
// specification of the CSR-only Coverage: building, assigning entries,
// encoding and decoding must give the same histograms bit for bit, and
// the decoder must reject exactly what this one rejects. Summaries
// written by that code are still read back by UnmarshalCoverage.
type refCoverage struct {
	grid Grid
	frac map[cellKey]map[cellKey]float64
}

func newRefCoverage(grid Grid) *refCoverage {
	return &refCoverage{grid: grid, frac: make(map[cellKey]map[cellKey]float64)}
}

// SetFrac sets Cvg[i][j][m][n]; setting zero removes the entry.
func (c *refCoverage) SetFrac(i, j, m, n int, f float64) {
	v := key(i, j)
	if f == 0 {
		if byA, ok := c.frac[v]; ok {
			delete(byA, key(m, n))
			if len(byA) == 0 {
				delete(c.frac, v)
			}
		}
		return
	}
	if c.frac[v] == nil {
		c.frac[v] = make(map[cellKey]float64)
	}
	c.frac[v][key(m, n)] = f
}

func (c *refCoverage) Entries() int {
	n := 0
	for _, byA := range c.frac {
		n += len(byA)
	}
	return n
}

// EachFrac visits the entries in ascending (i, j, m, n) order.
func (c *refCoverage) EachFrac(fn func(i, j, m, n int, f float64)) {
	vs := make([]cellKey, 0, len(c.frac))
	for v := range c.frac {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(x, y int) bool { return vs[x] < vs[y] })
	for _, v := range vs {
		as := make([]cellKey, 0, len(c.frac[v]))
		for a := range c.frac[v] {
			as = append(as, a)
		}
		sort.Slice(as, func(x, y int) bool { return as[x] < as[y] })
		i, j := v.split()
		for _, a := range as {
			m, n := a.split()
			fn(i, j, m, n, c.frac[v][a])
		}
	}
}

func (c *refCoverage) MarshalBinary() []byte {
	buf := []byte{cvgMagic}
	buf = appendGrid(buf, c.grid)
	buf = binary.AppendUvarint(buf, uint64(c.Entries()))
	g := c.grid.Size()
	c.EachFrac(func(i, j, m, n int, f float64) {
		buf = binary.AppendUvarint(buf, uint64(i*g+j))
		buf = binary.AppendUvarint(buf, uint64(m*g+n))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	})
	return buf
}

func unmarshalRefCoverage(data []byte) (*refCoverage, error) {
	r := &byteReader{data: data}
	magic, err := r.byte()
	if err != nil || magic != cvgMagic {
		return nil, fmt.Errorf("bad coverage magic")
	}
	grid, err := readGrid(r)
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	g := grid.Size()
	if n > uint64(g)*uint64(g)*uint64(g)*uint64(g) {
		return nil, fmt.Errorf("coverage entry count %d too large", n)
	}
	c := newRefCoverage(grid)
	for k := uint64(0); k < n; k++ {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		a, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(g*g) || a >= uint64(g*g) {
			return nil, fmt.Errorf("coverage cell key out of range")
		}
		fb, err := r.bytes(8)
		if err != nil {
			return nil, err
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(fb))
		if math.IsNaN(f) || f < 0 {
			return nil, fmt.Errorf("bad coverage fraction %v", f)
		}
		c.SetFrac(int(v)/g, int(v)%g, int(a)/g, int(a)%g, f)
	}
	return c, nil
}

// buildRefCoverage is the earlier BuildCoverageFromCells: one count
// plane per distinct ancestor cell, stored into the maps.
func buildRefCoverage(t *xmltree.Tree, pnodes []xmltree.NodeID, trueHist *Position, nc *NodeCells) (*refCoverage, error) {
	g := trueHist.Grid().Size()
	cov := newRefCoverage(trueHist.Grid())
	planeID := make(map[cellKey]int)
	var planes []map[int]float64
	var planeCells []cellKey
	for cursor, id := range pnodes {
		p := t.Node(id)
		if cursor+1 < len(pnodes) && t.Node(pnodes[cursor+1]).Start < p.End {
			return nil, fmt.Errorf("overlapping predicate")
		}
		ak := key(int(nc.I[id]), int(nc.J[id]))
		pid, ok := planeID[ak]
		if !ok {
			pid = len(planeCells)
			planeID[ak] = pid
			planeCells = append(planeCells, ak)
			planes = append(planes, make(map[int]float64))
		}
		for d := int(id) + 1; d < len(t.Nodes) && t.Nodes[d].Start < p.End; d++ {
			planes[pid][int(nc.I[d])*g+int(nc.J[d])]++
		}
	}
	for pid, plane := range planes {
		for idx, c := range plane {
			i, j := idx/g, idx%g
			if pop := trueHist.Count(i, j); pop > 0 {
				m, n := planeCells[pid].split()
				cov.SetFrac(i, j, m, n, c/pop)
			}
		}
	}
	return cov, nil
}

func mustMarshal(t testing.TB, c *Coverage) []byte {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkCoverageDecode decodes data with UnmarshalCoverage and the
// reference decoder: both must accept or both reject, and an accepted
// blob must re-encode to the same bytes.
func checkCoverageDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := UnmarshalCoverage(data)
	want, wantErr := unmarshalRefCoverage(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%x: UnmarshalCoverage error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if g, w := mustMarshal(t, got), want.MarshalBinary(); !bytes.Equal(g, w) {
		t.Fatalf("%x: decoded histograms differ\ngot  %x\nwant %x", data, g, w)
	}
}

// TestCoverageMatchesReference builds coverage histograms of random
// trees on grids of 2 to 100 buckets with both implementations, and
// assigns random entries (unsorted, duplicated, some zero) through
// NewCoverageFromEntries and the reference's SetFrac: every encoding
// must be byte-identical, and the decoder must agree with the
// reference on each blob.
func TestCoverageMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		tr := sectionTree(r, 5+r.Intn(60))
		if trial%4 == 3 {
			tr = randomTree(r, 20+r.Intn(400)) // mostly overlapping tags
		}
		g := 2 + r.Intn(99)
		if tr.MaxPos < g {
			g = tr.MaxPos
		}
		grid := MustUniformGrid(g, tr.MaxPos)
		nc := ComputeNodeCells(tr, grid)
		trueHist := BuildTrueFromCells(nc)
		for _, tag := range []string{"s", "a", "b"} {
			pnodes := tr.NodesWithTag(tag)
			got, gotErr := BuildCoverageFromCells(tr, pnodes, trueHist, nc)
			want, wantErr := buildRefCoverage(tr, pnodes, trueHist, nc)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d tag %s: error %v, reference error %v", trial, tag, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			blob := mustMarshal(t, got)
			if !bytes.Equal(blob, want.MarshalBinary()) {
				t.Fatalf("trial %d tag %s g=%d: built coverage differs from the reference", trial, tag, g)
			}
			checkCoverageDecode(t, blob)
		}

		var entries []CoverageEntry
		ref := newRefCoverage(grid)
		for k, n := 0, r.Intn(60); k < n; k++ {
			e := CoverageEntry{r.Intn(g), r.Intn(g), r.Intn(g), r.Intn(g), r.Float64()}
			switch r.Intn(5) {
			case 0:
				e.Frac = 0
			case 1:
				if len(entries) > 0 {
					d := entries[r.Intn(len(entries))]
					e.I, e.J, e.M, e.N = d.I, d.J, d.M, d.N
				}
			}
			entries = append(entries, e)
			ref.SetFrac(e.I, e.J, e.M, e.N, e.Frac)
		}
		if !bytes.Equal(mustMarshal(t, NewCoverageFromEntries(grid, entries)), ref.MarshalBinary()) {
			t.Fatalf("trial %d: NewCoverageFromEntries differs from assigning the entries in turn", trial)
		}
		// The same entries as a raw blob, in assignment order.
		raw := appendGrid([]byte{cvgMagic}, grid)
		raw = binary.AppendUvarint(raw, uint64(len(entries)))
		for _, e := range entries {
			raw = binary.AppendUvarint(raw, uint64(e.I*g+e.J))
			raw = binary.AppendUvarint(raw, uint64(e.M*g+e.N))
			raw = binary.BigEndian.AppendUint64(raw, math.Float64bits(e.Frac))
		}
		checkCoverageDecode(t, raw)
		checkCoverageDecode(t, raw[:r.Intn(len(raw)+1)])
	}
}

// sectionTree builds a tree whose "s" elements never nest, each over a
// random subtree of "b", "c" and "d" elements, so "s" has the
// no-overlap property; "c" elements between sections stay uncovered.
func sectionTree(r *rand.Rand, sections int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	b.Begin("root")
	for k := 0; k < sections; k++ {
		b.Begin("s")
		open := 0
		for n := r.Intn(12); n > 0; n-- {
			if open > 0 && r.Intn(3) == 0 {
				b.End()
				open--
			}
			b.Begin([]string{"b", "c", "d"}[r.Intn(3)])
			open++
		}
		for ; open > 0; open-- {
			b.End()
		}
		b.End()
		if r.Intn(3) == 0 {
			b.Element("c", "")
		}
	}
	b.End()
	return b.Tree()
}

// Sums holds the Fig 9 partial-summation planes of a histogram, built
// densely in O(g²) by the pseudo-code's recurrences. It is the reference
// the plane-free Regions is checked against, bit for bit.
//
// Plane definitions for the source histogram H (see Region):
//
//	Self(i, j)   = H[i][j]
//	Down(i, j)   = Σ_{l=i..j-1} H[i][l]
//	Right(i, j)  = Σ_{k=i+1..j} H[k][j]
//	Inside(i, j) = Σ_{k=i+1..j} Σ_{l=k..j-1} H[k][l]
type Sums struct {
	g                         int
	self, down, right, inside []float64
}

// newSums computes every plane for h; the passes mirror the Fig 9
// pseudo-code.
func newSums(h *Position) *Sums {
	g := h.grid.Size()
	s := &Sums{
		g:      g,
		self:   make([]float64, g*g),
		down:   make([]float64, g*g),
		right:  make([]float64, g*g),
		inside: make([]float64, g*g),
	}
	for _, c := range h.NonZeroCells() {
		s.self[c.I*g+c.J] = c.Count
	}
	// Pass 1: column partial sums.
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			s.down[i*g+j] = s.down[i*g+j-1] + s.self[i*g+j-1]
		}
	}
	// Pass 2: row and region partial sums.
	for j := g - 1; j >= 0; j-- {
		for i := j - 1; i >= 0; i-- {
			s.right[i*g+j] = s.right[(i+1)*g+j] + s.self[(i+1)*g+j]
			s.inside[i*g+j] = s.inside[(i+1)*g+j] + s.down[(i+1)*g+j]
		}
	}
	return s
}

// Region returns the partial sums of cell (i, j).
func (s *Sums) Region(i, j int) Region {
	x := i*s.g + j
	return Region{Self: s.self[x], Down: s.down[x], Right: s.right[x], Inside: s.inside[x]}
}

// fromPlane returns the histogram of a dense row-major g×g plane: its
// non-zero cells in (i, j) order.
func fromPlane(grid Grid, plane []float64) *Position {
	g := grid.Size()
	var cells []Cell
	for idx, v := range plane {
		if v != 0 {
			cells = append(cells, Cell{I: idx / g, J: idx % g, Count: v})
		}
	}
	return NewPosition(grid, cells)
}
