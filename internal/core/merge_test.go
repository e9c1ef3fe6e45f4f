package core

import (
	"fmt"
	"math"
	"testing"

	"xmlest/internal/pattern"
	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// departmentDoc builds one small department document with f faculty
// members, tas TAs per faculty and one staff member.
func departmentDoc(f, tas int) *xmltree.Tree {
	b := xmltree.NewBuilder()
	b.Begin("department")
	for i := 0; i < f; i++ {
		b.Begin("faculty")
		b.Element("name", fmt.Sprintf("f%d", i))
		for k := 0; k < tas; k++ {
			b.Element("TA", "")
		}
		b.End()
	}
	b.Begin("staff")
	b.Element("name", "s")
	b.End()
	b.End()
	return b.Tree()
}

// TestMergeSummariesMatchesFanOut pins the fold's exactness: folding
// per-shard summaries onto the concatenated grid answers every twig
// with the sum of the per-shard estimates, to float-accumulation order
// (1e-9 relative).
func TestMergeSummariesMatchesFanOut(t *testing.T) {
	queries := []string{
		"//faculty//TA",
		"//department//name",
		"//department//faculty//TA",
		"//department[.//staff]//TA",
	}
	for _, shards := range []int{2, 3, 7} {
		parts := make([]*Estimator, shards)
		for i := range parts {
			tree := departmentDoc(3+i, 2+i%3)
			est, err := NewEstimator(predicate.Spec{AllTags: true}.Build(tree), Options{GridSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = est
		}
		merged, mixed, err := MergeSummaries(parts)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range mixed {
			if m {
				t.Fatalf("shards=%d: predicate %s marked mixed", shards, name)
			}
		}
		for _, q := range queries {
			p := pattern.MustParse(q)
			want := 0.0
			for _, est := range parts {
				res, err := est.EstimateTwig(p)
				if err != nil {
					t.Fatal(err)
				}
				want += res.Estimate
			}
			if want <= 0 {
				t.Fatalf("shards=%d %s: degenerate fan-out estimate %v", shards, q, want)
			}
			res, err := merged.EstimateTwig(p)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(res.Estimate-want) / want; d > 1e-9 {
				t.Errorf("shards=%d %s: fold %v vs fan-out %v (rel %v)", shards, q, res.Estimate, want, d)
			}
		}
	}
}
