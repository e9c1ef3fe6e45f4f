package main

import (
	"fmt"
	"sort"
	"strings"

	"xmlest/internal/predicate"
	"xmlest/internal/xmltree"
)

// randomSource is the randomness the sampler draws from; *rand.Rand
// satisfies it, and a fixed seed makes the twig set reproducible.
type randomSource interface {
	Intn(n int) int
	Float64() float64
}

// sampler draws positive twig patterns from real data: each twig is an
// embedding of a real root-to-leaf path (plus optional branches taken
// from real descendants), so its exact count is at least one.
type sampler struct {
	src  randomSource
	tree *xmltree.Tree
	// tests[id] lists the pattern tests data node id satisfies, one per
	// registered predicate other than TRUE.
	tests [][]string
	// leaves are the nodes with at least one test, the path ends.
	leaves []xmltree.NodeID
}

// Sampler shape: twigs keep 2 to 5 path nodes; a kept edge that is a
// data parent-child edge is written "/" with probability childProb;
// each kept inner node gets a branch with probability branchProb; a
// kept inner node is relaxed to "*" with probability starProb.
const (
	minTwigNodes = 2
	maxTwigNodes = 5
	childProb    = 0.5
	branchProb   = 0.3
	starProb     = 0.05
)

func newSampler(src randomSource, cat *predicate.Catalog) *sampler {
	tree := cat.Tree
	s := &sampler{src: src, tree: tree, tests: make([][]string, len(tree.Nodes))}
	names := cat.Names()
	sort.Strings(names) // registration order is stable too; sorting makes it explicit
	for _, name := range names {
		if name == (predicate.True{}).Name() {
			continue
		}
		e, err := cat.Get(name)
		if err != nil {
			continue
		}
		test := patternTest(name)
		for _, id := range e.Nodes {
			s.tests[id] = append(s.tests[id], test)
		}
	}
	for id := range s.tests {
		if len(s.tests[id]) > 0 {
			s.leaves = append(s.leaves, xmltree.NodeID(id))
		}
	}
	return s
}

// patternTest renders a catalog predicate name as a pattern node test.
func patternTest(name string) string {
	if tag, ok := strings.CutPrefix(name, "tag="); ok {
		return tag
	}
	return "{" + name + "}"
}

// sample returns n distinct positive twigs, or an error when the data
// cannot supply that many.
func (s *sampler) sample(n int) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 200*n {
			return nil, fmt.Errorf("sampler: only %d distinct twigs after %d attempts", len(out), attempts)
		}
		t, ok := s.twig()
		if !ok || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out, nil
}

// twig samples one pattern from a random root-to-leaf path.
func (s *sampler) twig() (string, bool) {
	if len(s.leaves) == 0 {
		return "", false
	}
	leaf := s.leaves[s.src.Intn(len(s.leaves))]
	var path []xmltree.NodeID // testable nodes, root first
	for id := leaf; id != s.tree.Root() && id != xmltree.InvalidNode; id = s.tree.Nodes[id].Parent {
		if len(s.tests[id]) > 0 {
			path = append(path, id)
		}
	}
	if len(path) < minTwigNodes {
		return "", false
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	k := minTwigNodes + s.src.Intn(maxTwigNodes-minTwigNodes+1)
	kept := s.keep(path, min(k, len(path)))
	var b strings.Builder
	for i, id := range kept {
		if i == 0 || s.tree.Nodes[id].Parent != kept[i-1] || s.src.Float64() >= childProb {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		last := i == len(kept)-1
		if !last && s.src.Float64() < starProb {
			b.WriteString("*")
		} else {
			b.WriteString(s.pick(id))
		}
		if !last && s.src.Float64() < branchProb {
			if br, ok := s.branch(id, kept[i+1]); ok {
				b.WriteString("[.")
				b.WriteString(br)
				b.WriteString("]")
			}
		}
	}
	return b.String(), true
}

// keep picks k nodes of path in path order, always keeping the leaf.
func (s *sampler) keep(path []xmltree.NodeID, k int) []xmltree.NodeID {
	idx := make([]int, len(path)-1)
	for i := range idx {
		idx[i] = i
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := s.src.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	idx = append(idx[:k-1], len(path)-1)
	sort.Ints(idx)
	out := make([]xmltree.NodeID, len(idx))
	for i, j := range idx {
		out[i] = path[j]
	}
	return out
}

// pick chooses one of the node's tests.
func (s *sampler) pick(id xmltree.NodeID) string {
	ts := s.tests[id]
	return ts[s.src.Intn(len(ts))]
}

// branch picks a real testable descendant of id outside the subtree of
// next (the path's continuation) and renders it as a qualifier step.
func (s *sampler) branch(id, next xmltree.NodeID) (string, bool) {
	n := s.tree.Nodes[id]
	skip := s.tree.Nodes[next]
	var cands []xmltree.NodeID
	for d := id + 1; int(d) < len(s.tree.Nodes) && s.tree.Nodes[d].Start < n.End; d++ {
		dn := s.tree.Nodes[d]
		if dn.Start >= skip.Start && dn.End <= skip.End {
			continue
		}
		if len(s.tests[d]) > 0 {
			cands = append(cands, d)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	d := cands[s.src.Intn(len(cands))]
	axis := "//"
	if s.tree.Nodes[d].Parent == id && s.src.Float64() < childProb {
		axis = "/"
	}
	return axis + s.pick(d), true
}
