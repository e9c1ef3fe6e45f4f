// Package xmltree provides the node-labeled tree substrate that the
// estimator is built on: an in-memory XML document model, a strict XML
// parser that scans each document's bytes in one pass (it accepts what
// encoding/xml accepts), and the interval ("position") numbering scheme
// of Section 3.1 of the paper.
//
// A database is a single rooted tree. Multiple documents are merged into
// one mega-tree under a dummy root (tag "/"), exactly as the paper
// prescribes. Every node carries a (Start, End) label pair such that the
// interval of a descendant is strictly contained in the interval of each
// of its ancestors, and the intervals of two nodes that are not in an
// ancestor-descendant relationship are disjoint.
package xmltree

import (
	"fmt"
	"sort"
)

// NodeID identifies a node within a Tree. It is an index into Tree.Nodes.
// The dummy root is always NodeID 0.
type NodeID int32

// InvalidNode is returned by navigation helpers when no node exists
// (for example, the parent of the root).
const InvalidNode NodeID = -1

// Node is a single element (or attribute, or text container) in the tree.
// Nodes are stored in pre-order in Tree.Nodes, so NodeID order equals
// Start order.
type Node struct {
	// Tag is the element tag. Attribute nodes use "@name". The dummy
	// root uses "/".
	Tag string

	// Text is the concatenated character data directly inside this
	// element (not including text of subelements), with surrounding
	// whitespace trimmed. Content predicates evaluate against it.
	Text string

	// Start and End are the interval labels assigned by numbering:
	// Start is assigned when the node is entered in pre-order and End
	// when it is exited; both draw from the same counter, so
	// Start < End always holds, a descendant's interval is strictly
	// inside its ancestors', and sibling intervals are disjoint.
	Start, End int

	// Depth is the number of edges from the dummy root (the dummy root
	// has depth 0; document roots have depth 1).
	Depth int

	// Parent is the parent node, or InvalidNode for the dummy root.
	Parent NodeID

	// FirstChild and NextSibling encode the tree shape compactly.
	// InvalidNode means none.
	FirstChild, NextSibling NodeID
}

// Tree is an immutable, fully-numbered XML database tree.
type Tree struct {
	// Nodes holds every node in pre-order. Nodes[0] is the dummy root.
	Nodes []Node

	// MaxPos is one past the largest position label in use. All Start
	// and End labels are in [0, MaxPos).
	MaxPos int

	tagIndex map[string][]NodeID
}

// NumNodes returns the number of nodes excluding the dummy root.
func (t *Tree) NumNodes() int { return len(t.Nodes) - 1 }

// Root returns the dummy root's id.
func (t *Tree) Root() NodeID { return 0 }

// Node returns the node with the given id. The returned pointer is valid
// for the lifetime of the tree and must not be modified.
func (t *Tree) Node(id NodeID) *Node { return &t.Nodes[id] }

// IsAncestor reports whether a is a proper ancestor of d, using the
// interval labels.
func (t *Tree) IsAncestor(a, d NodeID) bool {
	na, nd := &t.Nodes[a], &t.Nodes[d]
	return na.Start < nd.Start && nd.End < na.End
}

// NodesWithTag returns the ids of all nodes with the given element tag,
// sorted by Start position. The returned slice is shared; callers must
// not modify it.
func (t *Tree) NodesWithTag(tag string) []NodeID {
	return t.tagIndex[tag]
}

// Tags returns all distinct element tags in the tree (excluding the
// dummy root tag "/"), sorted lexicographically.
func (t *Tree) Tags() []string {
	tags := make([]string, 0, len(t.tagIndex))
	for tag := range t.tagIndex {
		if tag == "/" {
			continue
		}
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}

// Children returns the ids of the direct children of id in document order.
func (t *Tree) Children(id NodeID) []NodeID {
	var out []NodeID
	for c := t.Nodes[id].FirstChild; c != InvalidNode; c = t.Nodes[c].NextSibling {
		out = append(out, c)
	}
	return out
}

// Descendants returns the ids of all proper descendants of id in document
// order. Because nodes are stored in pre-order and intervals nest, this is
// a contiguous range of NodeIDs.
func (t *Tree) Descendants(id NodeID) []NodeID {
	end := t.Nodes[id].End
	var out []NodeID
	for d := id + 1; int(d) < len(t.Nodes) && t.Nodes[d].Start < end; d++ {
		out = append(out, d)
	}
	return out
}

// Validate checks the structural invariants of the tree: pre-order
// storage, strict interval nesting along parent links, disjoint sibling
// intervals, links in range, and depth consistency. It returns the first
// violation found, in one pass over the nodes. It is used by tests and
// by loaders of untrusted input.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("xmltree: empty tree (missing dummy root)")
	}
	root := &t.Nodes[0]
	if root.Parent != InvalidNode {
		return fmt.Errorf("xmltree: dummy root has parent %d", root.Parent)
	}
	if root.Depth != 0 {
		return fmt.Errorf("xmltree: dummy root depth = %d, want 0", root.Depth)
	}
	inRange := func(id NodeID) bool { return id >= 0 && int(id) < len(t.Nodes) }
	prevStart := -1
	for id := range t.Nodes {
		n := &t.Nodes[id]
		if n.Start >= n.End {
			return fmt.Errorf("xmltree: node %d: start %d >= end %d", id, n.Start, n.End)
		}
		if n.End >= t.MaxPos {
			return fmt.Errorf("xmltree: node %d: end %d out of range [0,%d)", id, n.End, t.MaxPos)
		}
		if n.Start <= prevStart {
			return fmt.Errorf("xmltree: node %d: start %d not increasing (prev %d)", id, n.Start, prevStart)
		}
		prevStart = n.Start
		if n.FirstChild != InvalidNode && !inRange(n.FirstChild) {
			return fmt.Errorf("xmltree: node %d: bad first child %d", id, n.FirstChild)
		}
		// Sibling intervals must be disjoint: each sibling starts after
		// the one before it ends.
		if s := n.NextSibling; s != InvalidNode {
			if !inRange(s) {
				return fmt.Errorf("xmltree: node %d: bad next sibling %d", id, s)
			}
			if t.Nodes[s].Start <= n.End {
				return fmt.Errorf("xmltree: node %d and its next sibling %d have overlapping intervals", id, s)
			}
		}
		if id == 0 {
			continue
		}
		if !inRange(n.Parent) {
			return fmt.Errorf("xmltree: node %d: bad parent %d", id, n.Parent)
		}
		p := &t.Nodes[n.Parent]
		if !(p.Start < n.Start && n.End < p.End) {
			return fmt.Errorf("xmltree: node %d interval [%d,%d] not inside parent %d interval [%d,%d]",
				id, n.Start, n.End, n.Parent, p.Start, p.End)
		}
		if n.Depth != p.Depth+1 {
			return fmt.Errorf("xmltree: node %d depth %d, parent depth %d", id, n.Depth, p.Depth)
		}
	}
	return nil
}

// buildTagIndex populates the tag postings lists. Nodes are appended in
// NodeID (= pre-order = Start) order, so each list is sorted by Start.
func (t *Tree) buildTagIndex() {
	t.tagIndex = make(map[string][]NodeID)
	for id := 1; id < len(t.Nodes); id++ {
		tag := t.Nodes[id].Tag
		t.tagIndex[tag] = append(t.tagIndex[tag], NodeID(id))
	}
}

// Stats summarizes a tree for reporting.
type Stats struct {
	Nodes       int // excluding dummy root
	MaxDepth    int
	DistinctTag int
	MaxPos      int
}

// Stats computes summary statistics.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: t.NumNodes(), DistinctTag: len(t.Tags()), MaxPos: t.MaxPos}
	for i := 1; i < len(t.Nodes); i++ {
		if d := t.Nodes[i].Depth; d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	return s
}
