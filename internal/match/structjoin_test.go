package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

func TestStructuralJoinFig1(t *testing.T) {
	tr := xmltree.Fig1Document()
	pairs := StructuralJoin(tr, tr.NodesWithTag("faculty"), tr.NodesWithTag("TA"))
	if len(pairs) != 2 {
		t.Fatalf("faculty//TA pairs = %d, want 2", len(pairs))
	}
	for _, p := range pairs {
		if !tr.IsAncestor(p.Anc, p.Desc) {
			t.Errorf("pair (%d,%d) is not ancestor-descendant", p.Anc, p.Desc)
		}
		if tr.Node(p.Anc).Tag != "faculty" || tr.Node(p.Desc).Tag != "TA" {
			t.Errorf("pair has wrong tags")
		}
	}
}

// TestStructuralJoinMatchesCountPairs cross-checks the stack-based join
// against the binary-search counter on random trees.
func TestStructuralJoinMatchesCountPairs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 5+r.Intn(120))
		for _, a := range tr.Tags() {
			for _, d := range tr.Tags() {
				pairs := StructuralJoin(tr, tr.NodesWithTag(a), tr.NodesWithTag(d))
				want := CountPairs(tr, tr.NodesWithTag(a), tr.NodesWithTag(d))
				if int64(len(pairs)) != want {
					t.Logf("seed %d %s//%s: join=%d count=%d", seed, a, d, len(pairs), want)
					return false
				}
				seen := map[[2]xmltree.NodeID]bool{}
				for _, p := range pairs {
					if !tr.IsAncestor(p.Anc, p.Desc) {
						t.Logf("invalid pair")
						return false
					}
					k := [2]xmltree.NodeID{p.Anc, p.Desc}
					if seen[k] {
						t.Logf("duplicate pair")
						return false
					}
					seen[k] = true
				}
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func TestFindTwigMatchesFig1(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	p := pattern.MustParse("//department//faculty[.//TA][.//RA]")
	matches, err := FindTwigMatches(tr, p, resolve, 0)
	if err != nil {
		t.Fatalf("FindTwigMatches: %v", err)
	}
	if len(matches) != 4 {
		t.Fatalf("matches = %d, want 4", len(matches))
	}
	for _, m := range matches {
		if len(m) != 4 {
			t.Fatalf("match arity = %d, want 4", len(m))
		}
		dept, fac, ta, ra := m[0], m[1], m[2], m[3]
		if tr.Node(dept).Tag != "department" || tr.Node(fac).Tag != "faculty" ||
			tr.Node(ta).Tag != "TA" || tr.Node(ra).Tag != "RA" {
			t.Errorf("wrong tags in match")
		}
		if !tr.IsAncestor(dept, fac) || !tr.IsAncestor(fac, ta) || !tr.IsAncestor(fac, ra) {
			t.Errorf("structural constraints violated")
		}
	}
}

func TestFindTwigMatchesLimit(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	p := pattern.MustParse("//faculty//RA")
	all, err := FindTwigMatches(tr, p, resolve, 0)
	if err != nil {
		t.Fatalf("FindTwigMatches: %v", err)
	}
	if len(all) != 6 {
		t.Fatalf("all matches = %d, want 6", len(all))
	}
	limited, err := FindTwigMatches(tr, p, resolve, 2)
	if err != nil {
		t.Fatalf("FindTwigMatches: %v", err)
	}
	if len(limited) != 2 {
		t.Errorf("limited matches = %d, want 2", len(limited))
	}
	// The limited prefix must equal the unlimited enumeration's prefix.
	for i := range limited {
		for k := range limited[i] {
			if limited[i][k] != all[i][k] {
				t.Errorf("limited prefix diverges at match %d", i)
			}
		}
	}
}

func TestFindTwigMatchesChildAxis(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	matches, err := FindTwigMatches(tr, pattern.MustParse("//department/faculty/TA"), resolve, 0)
	if err != nil {
		t.Fatalf("FindTwigMatches: %v", err)
	}
	if len(matches) != 2 {
		t.Fatalf("child-axis matches = %d, want 2", len(matches))
	}
	for _, m := range matches {
		if tr.Node(m[1]).Parent != m[0] || tr.Node(m[2]).Parent != m[1] {
			t.Errorf("child axis violated")
		}
	}
}

// TestFindTwigMatchesCountAgreesWithCountTwig verifies enumeration and
// counting agree on random trees and a mix of patterns.
func TestFindTwigMatchesCountAgreesWithCountTwig(t *testing.T) {
	patterns := []string{"//a//b", "//a[.//b]//c", "//a/b", "//b//b"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 3+r.Intn(50))
		c := predicate.NewCatalog(tr)
		c.AddAllTags()
		resolve := catalogResolver(c)
		for _, src := range patterns {
			p := pattern.MustParse(src)
			count, err := CountTwig(tr, p, resolve)
			if err != nil {
				continue // tag absent in this random tree
			}
			matches, err := FindTwigMatches(tr, p, resolve, 0)
			if err != nil {
				t.Logf("enumerate: %v", err)
				return false
			}
			if float64(len(matches)) != count {
				t.Logf("seed %d %s: enumerated %d, counted %v", seed, src, len(matches), count)
				return false
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}
