package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"xmlest/internal/histogram"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// The earlier join code, kept as the specification of the sparse one:
// dense g×g planes written cell by cell, Fig 9 partial sums from dense
// summation planes, and a map-backed coverage histogram. Estimates are
// compared bit for bit, because summaries and estimates must not change
// across versions (crash recovery and replication compare them that
// way).

// refCvg is the map-backed coverage histogram.
type refCvg struct {
	frac map[[2]int]map[[2]int]float64
}

func newRefCvg() *refCvg { return &refCvg{frac: make(map[[2]int]map[[2]int]float64)} }

func refCvgOf(c *histogram.Coverage) *refCvg {
	if c == nil {
		return nil
	}
	out := newRefCvg()
	c.EachFrac(func(i, j, m, n int, f float64) { out.SetFrac(i, j, m, n, f) })
	return out
}

// SetFrac sets Cvg[i][j][m][n]; setting zero removes the entry.
func (c *refCvg) SetFrac(i, j, m, n int, f float64) {
	v := [2]int{i, j}
	if f == 0 {
		delete(c.frac[v], [2]int{m, n})
		if len(c.frac[v]) == 0 {
			delete(c.frac, v)
		}
		return
	}
	if c.frac[v] == nil {
		c.frac[v] = make(map[[2]int]float64)
	}
	c.frac[v][[2]int{m, n}] = f
}

// EachFrac visits the entries in ascending (i, j, m, n) order.
func (c *refCvg) EachFrac(fn func(i, j, m, n int, f float64)) {
	less := func(x, y [2]int) bool { return x[0] < y[0] || x[0] == y[0] && x[1] < y[1] }
	var vs [][2]int
	for v := range c.frac {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(x, y int) bool { return less(vs[x], vs[y]) })
	for _, v := range vs {
		var as [][2]int
		for a := range c.frac[v] {
			as = append(as, a)
		}
		sort.Slice(as, func(x, y int) bool { return less(as[x], as[y]) })
		for _, a := range as {
			fn(v[0], v[1], a[0], a[1], c.frac[v][a])
		}
	}
}

// refPlane is a dense g×g histogram plane, written cell by cell.
type refPlane struct {
	g     int
	cells []float64
}

func newRefPlane(grid histogram.Grid) *refPlane {
	g := grid.Size()
	return &refPlane{g: g, cells: make([]float64, g*g)}
}

func (p *refPlane) Add(i, j int, v float64) { p.cells[i*p.g+j] += v }
func (p *refPlane) Set(i, j int, v float64) { p.cells[i*p.g+j] = v }
func (p *refPlane) Count(i, j int) float64  { return p.cells[i*p.g+j] }
func (p *refPlane) Position(grid histogram.Grid) *histogram.Position {
	var cells []histogram.Cell
	for i := 0; i < p.g; i++ {
		for j := i; j < p.g; j++ {
			if v := p.Count(i, j); v != 0 {
				cells = append(cells, histogram.Cell{I: i, J: j, Count: v})
			}
		}
	}
	return histogram.NewPosition(grid, cells)
}

// refSums holds the Fig 9 partial-summation planes of a histogram,
// computed densely by the pseudo-code's recurrences.
type refSums struct {
	g                         int
	self, down, right, inside []float64
}

func newRefSums(h *histogram.Position) *refSums {
	g := h.Grid().Size()
	s := &refSums{g: g, self: make([]float64, g*g), down: make([]float64, g*g),
		right: make([]float64, g*g), inside: make([]float64, g*g)}
	for _, c := range h.NonZeroCells() {
		s.self[c.I*g+c.J] = c.Count
	}
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			s.down[i*g+j] = s.down[i*g+j-1] + s.self[i*g+j-1]
		}
	}
	for j := g - 1; j >= 0; j-- {
		for i := j - 1; i >= 0; i-- {
			s.right[i*g+j] = s.right[(i+1)*g+j] + s.self[(i+1)*g+j]
			s.inside[i*g+j] = s.inside[(i+1)*g+j] + s.down[(i+1)*g+j]
		}
	}
	return s
}

func (s *refSums) Self(i, j int) float64   { return s.self[i*s.g+j] }
func (s *refSums) Down(i, j int) float64   { return s.down[i*s.g+j] }
func (s *refSums) Right(i, j int) float64  { return s.right[i*s.g+j] }
func (s *refSums) Inside(i, j int) float64 { return s.inside[i*s.g+j] }

type refSP struct {
	Est, Hist, Base *histogram.Position
	Cvg             *refCvg
	NoOverlap       bool
}

func (s refSP) jnFct(i, j int) float64 {
	h := s.Hist.Count(i, j)
	if h <= 0 {
		return 0
	}
	return s.Est.Count(i, j) / h
}

func refAncestorCoef(s *refSums, i, j int) float64 {
	if i == j {
		return s.Self(i, i) / 12
	}
	return s.Inside(i, j) +
		s.Down(i, j) - s.Self(i, i)/2 +
		s.Right(i, j) - s.Self(j, j)/2 +
		s.Self(i, j)/4
}

// refDescendantCoef is the Fig 6 descendant-based coefficient by brute
// force: every cell (k, l) with k <= i and l >= j but (i, j) itself,
// summed in (k, l) order, plus the cell's own count weighted 1/4
// (1/12 on the diagonal).
func refDescendantCoef(h *histogram.Position, i, j int) float64 {
	g := h.Grid().Size()
	var region float64
	for k := 0; k <= i; k++ {
		for l := j; l < g; l++ {
			if k != i || l != j {
				region += h.Count(k, l)
			}
		}
	}
	selfW := 0.25
	if i == j {
		selfW = 1.0 / 12
	}
	return region + selfW*h.Count(i, j)
}

func refJoinAncestor(anc, desc refSP) refSP {
	grid := anc.Est.Grid()
	if !anc.NoOverlap || anc.Cvg == nil {
		ps := newRefSums(desc.Est)
		est := newRefPlane(grid)
		for _, c := range anc.Est.NonZeroCells() {
			est.Set(c.I, c.J, c.Count*refAncestorCoef(ps, c.I, c.J))
		}
		estH := est.Position(grid)
		return refSP{Est: estH, Hist: refCapCellwise(estH, anc.Hist), Base: anc.Base, NoOverlap: anc.NoOverlap}
	}
	covMass := newRefPlane(grid)
	anc.Cvg.EachFrac(func(m, n, i, j int, f float64) {
		if e := desc.Est.Count(m, n); e != 0 {
			covMass.Add(i, j, f*e)
		}
	})
	est := newRefPlane(grid)
	covMass.Position(grid).EachNonZero(func(i, j int, mass float64) {
		est.Set(i, j, anc.jnFct(i, j)*mass)
	})
	descPart := newRefSums(desc.Hist)
	histP := newRefPlane(grid)
	for _, c := range anc.Hist.NonZeroCells() {
		n := c.Count
		if n <= 0 {
			continue
		}
		m := descPart.Inside(c.I, c.J) + descPart.Down(c.I, c.J) + descPart.Right(c.I, c.J) + descPart.Self(c.I, c.J)
		if m <= 0 {
			continue
		}
		var part float64
		if n <= 1 {
			part = n
		} else {
			part = n * (1 - math.Pow((n-1)/n, m))
		}
		histP.Set(c.I, c.J, part)
	}
	hist := histP.Position(grid)
	cvg := refScaleCoverage(anc.Cvg, func(m, n int) float64 {
		base := anc.Hist.Count(m, n)
		if base <= 0 {
			return 0
		}
		return hist.Count(m, n) / base
	})
	return refSP{Est: est.Position(grid), Hist: hist, Base: anc.Base, Cvg: cvg, NoOverlap: true}
}

func refJoinDescendant(anc, desc refSP) refSP {
	grid := desc.Est.Grid()
	est := newRefPlane(grid)
	var hist *histogram.Position
	if anc.NoOverlap && anc.Cvg != nil {
		covFct := newRefPlane(grid)
		covPart := newRefPlane(grid)
		anc.Cvg.EachFrac(func(vi, vj, m, n int, f float64) {
			if jf := anc.jnFct(m, n); jf != 0 {
				covFct.Add(vi, vj, f*jf)
			}
			if anc.Hist.Count(m, n) > 0 {
				covPart.Add(vi, vj, f)
			}
		})
		for _, c := range desc.Est.NonZeroCells() {
			est.Set(c.I, c.J, c.Count*covFct.Count(c.I, c.J))
		}
		histP := newRefPlane(grid)
		for _, c := range desc.Hist.NonZeroCells() {
			histP.Set(c.I, c.J, c.Count*covPart.Count(c.I, c.J))
		}
		hist = histP.Position(grid)
	} else {
		for _, c := range desc.Est.NonZeroCells() {
			est.Set(c.I, c.J, c.Count*refDescendantCoef(anc.Est, c.I, c.J))
		}
		hist = refCapCellwise(est.Position(grid), desc.Hist)
	}
	var cvg *refCvg
	if desc.NoOverlap && desc.Cvg != nil {
		cvg = refScaleCoverage(desc.Cvg, func(i, j int) float64 {
			base := desc.Hist.Count(i, j)
			if base <= 0 {
				return 0
			}
			return hist.Count(i, j) / base
		})
	}
	return refSP{Est: est.Position(grid), Hist: hist, Base: desc.Base, Cvg: cvg, NoOverlap: desc.NoOverlap}
}

func refCapCellwise(est, capH *histogram.Position) *histogram.Position {
	out := newRefPlane(est.Grid())
	est.EachNonZero(func(i, j int, v float64) {
		if c := capH.Count(i, j); v > c {
			v = c
		}
		out.Set(i, j, v)
	})
	return out.Position(est.Grid())
}

func refScaleCoverage(cvg *refCvg, ratio func(m, n int) float64) *refCvg {
	out := newRefCvg()
	cvg.EachFrac(func(i, j, m, n int, f float64) {
		if r := ratio(m, n); r > 0 {
			out.SetFrac(i, j, m, n, f*r)
		}
	})
	return out
}

func refLeaf(e *Estimator, name string) refSP {
	h, _ := e.Histogram(name)
	return refSP{Est: h, Hist: h, Base: h, Cvg: refCvgOf(e.CoverageHistogram(name)), NoOverlap: e.NoOverlap(name)}
}

// refFold is the dense-join transcription of buildSubPattern.
func refFold(e *Estimator, q *pattern.Node) (refSP, bool) {
	acc := refLeaf(e, q.PredName())
	used := false
	for _, qc := range q.Children {
		child, childNoOv := refFold(e, qc)
		used = used || childNoOv || acc.NoOverlap && acc.Cvg != nil
		joined := refJoinAncestor(acc, child)
		if qc.Axis == pattern.Child {
			if r := e.childEdgeRatio(q.PredName(), qc.PredName()); r < 1 {
				joined.Est = joined.Est.Scaled(r)
			}
		}
		acc = joined
	}
	return acc, used
}

// sameSubPattern reports the first difference between a sub-pattern and
// the reference's, comparing every cell, total and coverage entry by
// its bits.
func sameSubPattern(got SubPattern, want refSP) error {
	hists := []struct {
		name      string
		got, want *histogram.Position
	}{{"estimate", got.Est, want.Est}, {"participation", got.Hist, want.Hist}}
	for _, h := range hists {
		if math.Float64bits(h.got.Total()) != math.Float64bits(h.want.Total()) {
			return fmt.Errorf("%s total %v, reference %v", h.name, h.got.Total(), h.want.Total())
		}
		if g, w := fmt.Sprint(cellBits(h.got)), fmt.Sprint(cellBits(h.want)); g != w {
			return fmt.Errorf("%s cells %s, reference %s", h.name, g, w)
		}
	}
	if got.NoOverlap != want.NoOverlap || (got.Cvg == nil) != (want.Cvg == nil) {
		return fmt.Errorf("no-overlap %v coverage %v, reference %v %v", got.NoOverlap, got.Cvg != nil, want.NoOverlap, want.Cvg != nil)
	}
	if got.Cvg != nil {
		if g, w := fmt.Sprint(entryBits(got.Cvg.EachFrac)), fmt.Sprint(entryBits(want.Cvg.EachFrac)); g != w {
			return fmt.Errorf("coverage %s, reference %s", g, w)
		}
	}
	return nil
}

func cellBits(h *histogram.Position) [][3]uint64 {
	var out [][3]uint64
	h.EachNonZero(func(i, j int, v float64) { out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)}) })
	return out
}

func entryBits(each func(func(i, j, m, n int, f float64))) [][5]uint64 {
	var out [][5]uint64
	each(func(i, j, m, n int, f float64) {
		out = append(out, [5]uint64{uint64(i), uint64(j), uint64(m), uint64(n), math.Float64bits(f)})
	})
	return out
}

// refTree builds documents whose "doc" and "s" elements never nest
// (no-overlap, with coverage) around random "a", "b", "c" and "x"
// subtrees, which may nest (overlap).
func refTree(r *rand.Rand, docs int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	var fill func(depth int)
	fill = func(depth int) {
		for n := r.Intn(4); n > 0; n-- {
			tag := []string{"a", "b", "c", "x"}[r.Intn(4)]
			if depth < 4 && r.Intn(2) == 0 {
				b.Begin(tag)
				fill(depth + 1)
				b.End()
			} else {
				b.Element(tag, "")
			}
		}
	}
	for d := 0; d < docs; d++ {
		b.Begin("doc")
		for k := r.Intn(5); k >= 0; k-- {
			b.Begin("s")
			fill(0)
			b.End()
		}
		fill(1)
		b.End()
	}
	return b.Tree()
}

// refTwig draws a twig of one to five nodes with random axes and
// branches.
func refTwig(r *rand.Rand) *pattern.Pattern {
	tests := []string{"doc", "s", "a", "b", "c", "x", "*"}
	budget := 1 + r.Intn(5)
	var step func() string
	step = func() string {
		s := "//"
		if r.Intn(3) == 0 {
			s = "/"
		}
		s += tests[r.Intn(len(tests))]
		budget--
		for budget > 1 && r.Intn(3) == 0 {
			s += "[." + step() + "]"
		}
		if budget > 0 && r.Intn(4) > 0 {
			s += step()
		}
		return s
	}
	return pattern.MustParse(step())
}

// TestJoinsMatchReference folds random twigs over random trees on grids
// of 2 to 100 buckets, with and without level histograms, and requires
// every sub-pattern — estimate and participation cells, totals and
// coverage entries — to equal the dense reference bit for bit, through
// both JoinAncestor folds and JoinDescendant.
func TestJoinsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 40; trial++ {
		tr := refTree(r, 1+r.Intn(12))
		cat := predicate.NewCatalog(tr)
		cat.AddAllTags()
		cat.Add(predicate.True{})
		opts := Options{GridSize: min(2+r.Intn(99), tr.MaxPos), LevelHistograms: r.Intn(2) == 0}
		e, err := NewEstimator(cat, opts)
		if err != nil {
			t.Fatal(err)
		}
		var subs []SubPattern
		var refs []refSP
		for k := 0; k < 12; k++ {
			p := refTwig(r)
			resolvable := true
			for _, n := range p.Nodes() {
				resolvable = resolvable && e.HasPredicate(n.PredName())
			}
			if !resolvable {
				continue
			}
			got, gotNoOv, err := e.buildSubPattern(p.Root)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p, err)
			}
			want, wantNoOv := refFold(e, p.Root)
			if err := sameSubPattern(got, want); err != nil || gotNoOv != wantNoOv {
				t.Fatalf("trial %d g=%d %s: %v (no-overlap %v, reference %v)", trial, opts.GridSize, p, err, gotNoOv, wantNoOv)
			}
			subs, refs = append(subs, got), append(refs, want)
		}
		for x := range subs {
			for y := range subs {
				got, err := JoinDescendant(subs[x], subs[y])
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSubPattern(got, refJoinDescendant(refs[x], refs[y])); err != nil {
					t.Fatalf("trial %d: JoinDescendant(%d, %d): %v", trial, x, y, err)
				}
			}
		}
	}
}

// TestConcurrentFoldsMatchSerial folds the same twigs on fresh
// estimators from several goroutines at once: the pooled join scratch
// must come back all zero, so every estimate equals the serial one bit
// for bit. Run it with -race.
func TestConcurrentFoldsMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tr := refTree(r, 8)
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	cat.Add(predicate.True{})
	var twigs []*pattern.Pattern
	for len(twigs) < 16 {
		twigs = append(twigs, refTwig(r))
	}
	fold := func() []uint64 {
		e, err := NewEstimator(cat, Options{GridSize: min(40, tr.MaxPos)})
		if err != nil {
			t.Error(err)
			return nil
		}
		var out []uint64
		for _, p := range twigs {
			res, err := e.EstimateTwig(p)
			if err != nil {
				out = append(out, 0)
				continue
			}
			out = append(out, math.Float64bits(res.Estimate))
		}
		return out
	}
	want := fmt.Sprint(fold())
	const workers = 4
	got := make([]string, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for k := 0; k < 5; k++ {
				got[w] = fmt.Sprint(fold())
				if got[w] != want {
					break
				}
			}
			done <- w
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w, g := range got {
		if g != want {
			t.Fatalf("worker %d: estimates %s, serial %s", w, g, want)
		}
	}
}
