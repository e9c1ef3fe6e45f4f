package planner

import (
	"math"
	"testing"

	"xmlest/internal/core"
	"xmlest/internal/datagen"
	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

func fig1Estimator(t *testing.T) *core.Estimator {
	t.Helper()
	tr := xmltree.Fig1Document()
	cat := predicate.NewCatalog(tr)
	cat.AddAllTags()
	est, err := core.NewEstimator(cat, core.Options{GridSize: 4})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	return est
}

func TestEnumerateFig2Twig(t *testing.T) {
	est := fig1Estimator(t)
	p := pattern.MustParse("//department//faculty[.//TA][.//RA]")
	plans, err := Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	if len(plans) < 2 {
		t.Fatalf("want multiple plans, got %d", len(plans))
	}
	// Costs must be ascending and every plan must join all 4 nodes.
	for i, pl := range plans {
		if len(pl.Steps) != 4 {
			t.Errorf("plan %d has %d steps, want 4", i, len(pl.Steps))
		}
		if i > 0 && pl.Cost < plans[i-1].Cost {
			t.Errorf("plans not sorted by cost at %d", i)
		}
		if pl.Cost < 0 {
			t.Errorf("negative cost %v", pl.Cost)
		}
	}
	best, err := Best(est, p)
	if err != nil {
		t.Fatalf("Best: %v", err)
	}
	if best.Cost != plans[0].Cost {
		t.Errorf("Best cost %v != first enumerated %v", best.Cost, plans[0].Cost)
	}
	if best.String() == "" {
		t.Errorf("empty plan string")
	}
}

func TestEnumerateConnectedPrefixesOnly(t *testing.T) {
	est := fig1Estimator(t)
	p := pattern.MustParse("//department//faculty//TA")
	plans, err := Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	// For a 3-chain a-b-c the connected left-deep orders are:
	// abc, acb?? (a,c not adjacent) -> invalid. Valid: abc, bac, bca, cba.
	if len(plans) != 4 {
		t.Errorf("3-chain plans = %d, want 4", len(plans))
	}
	for _, pl := range plans {
		seen := map[*pattern.Node]bool{pl.Steps[0].Added: true}
		parent := map[*pattern.Node]*pattern.Node{}
		for _, e := range p.Edges() {
			parent[e[1]] = e[0]
		}
		for _, s := range pl.Steps[1:] {
			adjacent := false
			for n := range seen {
				if parent[s.Added] == n || parent[n] == s.Added {
					adjacent = true
				}
			}
			if !adjacent {
				t.Errorf("plan step joins non-adjacent node %s", s.Added.Test)
			}
			seen[s.Added] = true
		}
	}
}

func TestPlannerPrefersSelectiveFirstJoin(t *testing.T) {
	// department//employee//email on the hierarchical data: joining the
	// rare email first should be no more expensive than the plan that
	// materializes the large department//employee intermediate first.
	tr := datagen.GenerateHier(datagen.DefaultHierConfig)
	cat := datagen.HierCatalog(tr)
	est, err := core.NewEstimator(cat, core.Options{GridSize: 10})
	if err != nil {
		t.Fatalf("NewEstimator: %v", err)
	}
	p := pattern.MustParse("//department//employee//email")
	plans, err := Enumerate(est, p)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	best, worst := plans[0], plans[len(plans)-1]
	if best.Cost > worst.Cost {
		t.Fatalf("sorted order broken")
	}
	if worst.Cost <= best.Cost {
		t.Skipf("all plans tie on this data (cost %v)", best.Cost)
	}
}

func TestEnumerateErrors(t *testing.T) {
	est := fig1Estimator(t)
	if _, err := Enumerate(est, pattern.MustParse("//faculty")); err == nil {
		t.Errorf("single-node pattern: want error")
	}
	if _, err := Enumerate(est, pattern.MustParse("//nosuch//TA")); err == nil {
		t.Errorf("missing predicate: want error")
	}
	big := pattern.MustParse("//a//b//c//d//e//f//g//h//i")
	if _, err := Enumerate(est, big); err == nil {
		t.Errorf("oversized pattern: want error")
	}
}

// wideTwig is an 8-node DBLP twig, the widest Enumerate accepts: an
// article with seven branches, so every node set containing the
// article is connected and is reached along many join orders.
const wideTwig = "//article[./author][./title][./year][./url][./cite][.//{conf}][.//{1990's}]"

func dblpEstimator(tb testing.TB) *core.Estimator {
	tb.Helper()
	tr := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 2002, Scale: 0.05})
	est, err := core.NewEstimator(datagen.DBLPCatalog(tr), core.Options{GridSize: 10})
	if err != nil {
		tb.Fatalf("NewEstimator: %v", err)
	}
	return est
}

// TestEnumerateMatchesUnmemoized checks the per-set memo against an
// enumeration that estimates every step afresh: the plans must agree
// in order, in cost and in every step's node and estimate, bit for bit.
func TestEnumerateMatchesUnmemoized(t *testing.T) {
	cases := []struct {
		est *core.Estimator
		src string
	}{
		{fig1Estimator(t), "//department//faculty[.//TA][.//RA]"},
		{dblpEstimator(t), wideTwig},
	}
	for _, c := range cases {
		p := pattern.MustParse(c.src)
		got, err := Enumerate(c.est, p)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", c.src, err)
		}
		want, err := enumerate(p, func(joined []*pattern.Node) (float64, error) {
			return estimateInduced(c.est, p, joined)
		})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.src, err)
		}
		sortPlans(want)
		if len(got) != len(want) {
			t.Fatalf("%s: %d plans, reference %d", c.src, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) || len(g.Steps) != len(w.Steps) {
				t.Fatalf("%s plan %d: cost %v with %d steps, reference %v with %d", c.src, i, g.Cost, len(g.Steps), w.Cost, len(w.Steps))
			}
			for k := range g.Steps {
				gs, ws := g.Steps[k], w.Steps[k]
				if gs.Added != ws.Added || math.Float64bits(gs.Estimate) != math.Float64bits(ws.Estimate) {
					t.Fatalf("%s plan %d step %d: %s [%v], reference %s [%v]", c.src, i, k, gs.Added.Test, gs.Estimate, ws.Added.Test, ws.Estimate)
				}
			}
		}
	}
}

// TestBestIsFirstEnumerated: Best's linear scan picks exactly the plan
// the stable cost sort puts first — the same steps, estimates and cost.
func TestBestIsFirstEnumerated(t *testing.T) {
	cases := []struct {
		est *core.Estimator
		src string
	}{
		{fig1Estimator(t), "//department//faculty[.//TA][.//RA]"},
		{dblpEstimator(t), wideTwig},
	}
	for _, c := range cases {
		p := pattern.MustParse(c.src)
		plans, err := Enumerate(c.est, p)
		if err != nil {
			t.Fatalf("%s: Enumerate: %v", c.src, err)
		}
		best, err := Best(c.est, p)
		if err != nil {
			t.Fatalf("%s: Best: %v", c.src, err)
		}
		want := plans[0]
		if math.Float64bits(best.Cost) != math.Float64bits(want.Cost) || len(best.Steps) != len(want.Steps) {
			t.Fatalf("%s: Best cost %v with %d steps, Enumerate[0] %v with %d", c.src, best.Cost, len(best.Steps), want.Cost, len(want.Steps))
		}
		for k := range best.Steps {
			bs, ws := best.Steps[k], want.Steps[k]
			if bs.Added != ws.Added || math.Float64bits(bs.Estimate) != math.Float64bits(ws.Estimate) {
				t.Fatalf("%s step %d: Best %s [%v], Enumerate[0] %s [%v]", c.src, k, bs.Added.Test, bs.Estimate, ws.Added.Test, ws.Estimate)
			}
		}
	}
}

func BenchmarkEnumerate(b *testing.B) {
	est := dblpEstimator(b)
	p := pattern.MustParse(wideTwig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(est, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBest(b *testing.B) {
	est := dblpEstimator(b)
	p := pattern.MustParse(wideTwig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Best(est, p); err != nil {
			b.Fatal(err)
		}
	}
}
