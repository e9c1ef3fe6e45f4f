package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

func catalogResolver(c *predicate.Catalog) Resolver {
	return func(name string) ([]xmltree.NodeID, error) {
		e, err := c.Get(name)
		if err != nil {
			return nil, err
		}
		return e.Nodes, nil
	}
}

func fig1Resolver(t *testing.T) (*xmltree.Tree, Resolver) {
	t.Helper()
	tr := xmltree.Fig1Document()
	c := predicate.NewCatalog(tr)
	c.AddAllTags()
	c.Add(predicate.True{})
	return tr, catalogResolver(c)
}

func TestCountPairsFig1(t *testing.T) {
	tr, _ := fig1Resolver(t)
	cases := []struct {
		anc, desc string
		want      int64
	}{
		{"faculty", "TA", 2},
		{"faculty", "RA", 6},
		{"department", "faculty", 3},
		{"department", "TA", 5},
		{"lecturer", "TA", 3},
		{"TA", "faculty", 0},
		{"faculty", "faculty", 0},
	}
	for _, c := range cases {
		got := CountPairs(tr, tr.NodesWithTag(c.anc), tr.NodesWithTag(c.desc))
		if got != c.want {
			t.Errorf("%s//%s = %d, want %d", c.anc, c.desc, got, c.want)
		}
	}
}

func TestCountChildPairsFig1(t *testing.T) {
	tr, _ := fig1Resolver(t)
	if got := CountChildPairs(tr, tr.NodesWithTag("department"), tr.NodesWithTag("faculty")); got != 3 {
		t.Errorf("department/faculty = %d, want 3", got)
	}
	if got := CountChildPairs(tr, tr.NodesWithTag("department"), tr.NodesWithTag("TA")); got != 0 {
		t.Errorf("department/TA = %d, want 0 (TAs are grandchildren)", got)
	}
}

func TestCountTwigFig1(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	cases := []struct {
		src  string
		want float64
	}{
		{"//faculty//TA", 2},
		{"//department//faculty", 3},
		{"//department//faculty[.//TA][.//RA]", 4}, // 1 faculty × 2 TA × 2 RA
		{"//department//faculty//TA", 2},
		{"//department/faculty", 3},
		{"//faculty/TA", 2},
		{"//lecturer//RA", 0},
		{"//*//TA", 10}, // dept(5) + lecturer(3) + faculty(2) ancestors... see below
	}
	for _, c := range cases {
		got, err := CountTwig(tr, pattern.MustParse(c.src), resolve)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("CountTwig(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCountTwigMatchesBruteForce(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	for _, src := range []string{
		"//faculty//TA",
		"//department//faculty[.//TA][.//RA]",
		"//department//faculty[.//secretary]//RA",
		"//*//name",
		"//department/faculty/TA",
	} {
		p := pattern.MustParse(src)
		fast, err := CountTwig(tr, p, resolve)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		brute, err := BruteCount(tr, p, resolve)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if fast != float64(brute) {
			t.Errorf("%s: fast = %v, brute = %d", src, fast, brute)
		}
	}
}

func TestPropertyCountTwigEqualsBrute(t *testing.T) {
	patterns := []string{
		"//a//b",
		"//a//b//c",
		"//a[.//b][.//c]",
		"//a/b",
		"//a[.//b]//c",
		"//b//b",
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 2+r.Intn(40))
		c := predicate.NewCatalog(tr)
		c.AddAllTags()
		c.Add(predicate.True{})
		resolve := catalogResolver(c)
		for _, src := range patterns {
			p := pattern.MustParse(src)
			fast, err := CountTwig(tr, p, resolve)
			if err != nil {
				// Tags may be absent from small random trees; missing
				// predicate entries are the only acceptable failure.
				continue
			}
			brute, _ := BruteCount(tr, p, resolve)
			if fast != float64(brute) {
				t.Logf("seed %d %s: fast=%v brute=%d", seed, src, fast, brute)
				return false
			}
		}
		return true
	}
	// A fixed seed keeps the check replayable; the failure names it.
	const quickSeed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(quickSeed))}); err != nil {
		t.Errorf("quick.Check (seed %d): %v", quickSeed, err)
	}
}

func randomTree(r *rand.Rand, n int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	tags := []string{"a", "b", "c"}
	open := 0
	for i := 0; i < n; i++ {
		if open > 0 && r.Intn(3) == 0 {
			b.End()
			open--
		}
		b.Begin(tags[r.Intn(len(tags))])
		open++
	}
	return b.Tree()
}

func TestCountTwigMissingPredicate(t *testing.T) {
	tr, resolve := fig1Resolver(t)
	if _, err := CountTwig(tr, pattern.MustParse("//nosuchtag//TA"), resolve); err == nil {
		t.Errorf("missing predicate: want error")
	}
}

func TestParticipationFig1(t *testing.T) {
	tr, resolve := fig1Resolver(t)

	// //faculty//TA: only one faculty has TAs (2 of the 5 TAs).
	parts, err := Participation(tr, pattern.MustParse("//faculty//TA"), resolve)
	if err != nil {
		t.Fatalf("Participation: %v", err)
	}
	if parts[0] != 1 || parts[1] != 2 {
		t.Errorf("faculty//TA participation = %v, want [1 2]", parts)
	}

	// Fig 2 twig: 1 faculty, its 2 TAs, its 2 RAs.
	parts, err = Participation(tr, pattern.MustParse("//department//faculty[.//TA][.//RA]"), resolve)
	if err != nil {
		t.Fatalf("Participation: %v", err)
	}
	want := []int64{1, 1, 2, 2}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("Fig 2 participation = %v, want %v", parts, want)
			break
		}
	}
}

func TestParticipationViabilityPropagates(t *testing.T) {
	// b under a[0] has a c below; b under a[1] has none. Pattern
	// //a//b//c: the second b has count 0 and must not participate;
	// likewise c nodes outside any viable b must not.
	tr, err := xmltree.ParseString(`<r><a><b><c/></b></a><a><b/></a><c/></r>`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := predicate.NewCatalog(tr)
	c.AddAllTags()
	parts, err := Participation(tr, pattern.MustParse("//a//b//c"), catalogResolver(c))
	if err != nil {
		t.Fatalf("Participation: %v", err)
	}
	want := []int64{1, 1, 1}
	for i := range want {
		if parts[i] != want[i] {
			t.Errorf("participation = %v, want %v", parts, want)
			break
		}
	}
}

func TestCountPairsEmptyLists(t *testing.T) {
	tr, _ := fig1Resolver(t)
	if got := CountPairs(tr, nil, tr.NodesWithTag("TA")); got != 0 {
		t.Errorf("empty anc: %d", got)
	}
	if got := CountPairs(tr, tr.NodesWithTag("faculty"), nil); got != 0 {
		t.Errorf("empty desc: %d", got)
	}
}
