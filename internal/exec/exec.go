// Package exec executes twig queries with Volcano-style iterators,
// following a join order chosen by the planner. It is the consumer the
// paper's estimator exists for (the TIMBER query engine in the paper's
// context): the planner picks a join order from histogram estimates,
// exec runs it, and the per-step actual intermediate sizes can be
// compared against the predictions.
//
// An intermediate result is a set of bindings: one data node per
// pattern node joined so far. Each Volcano operator counts the tuples
// it emits, so a finished execution reports the true size of every
// intermediate result — the quantity the estimator predicts.
package exec

import (
	"fmt"
	"sort"

	"xmlest/internal/match"
	"xmlest/internal/pattern"
	"xmlest/internal/planner"
	"xmlest/internal/xmltree"
)

// Tuple is one partial binding: Tuple[i] is the data node bound to the
// i-th joined pattern node (in plan join order).
type Tuple []xmltree.NodeID

// Operator is a Volcano-style iterator over tuples.
type Operator interface {
	// Open prepares the operator for iteration.
	Open() error
	// Next returns the next tuple, or ok=false at end of stream. The
	// returned tuple is only valid until the next call.
	Next() (t Tuple, ok bool, err error)
	// Close releases resources. The operator may be re-Opened.
	Close() error
	// Emitted reports how many tuples the operator has produced since
	// Open — the actual intermediate result size.
	Emitted() int64
}

// Scan emits one single-column tuple per node of a predicate list.
type Scan struct {
	nodes   []xmltree.NodeID
	pos     int
	emitted int64
	buf     Tuple
}

// NewScan creates a scan over a start-sorted node list.
func NewScan(nodes []xmltree.NodeID) *Scan {
	return &Scan{nodes: nodes, buf: make(Tuple, 1)}
}

func (s *Scan) Open() error {
	s.pos, s.emitted = 0, 0
	return nil
}

func (s *Scan) Next() (Tuple, bool, error) {
	if s.pos >= len(s.nodes) {
		return nil, false, nil
	}
	s.buf[0] = s.nodes[s.pos]
	s.pos++
	s.emitted++
	return s.buf, true, nil
}

func (s *Scan) Close() error   { return nil }
func (s *Scan) Emitted() int64 { return s.emitted }

// BindJoin extends each input tuple with every data node of a candidate
// list that stands in the required structural relation to an
// already-bound column. It implements four access paths:
//
//   - descendants of the bound node (axis //, bound node is the pattern
//     parent): a binary-searched range of the start-sorted candidates;
//   - ancestors of the bound node (axis // upward): a walk up the tree
//     filtered by candidate membership;
//   - children / parent for axis /.
type BindJoin struct {
	input Operator
	// boundCol is the input column the new node relates to.
	boundCol int
	// cands is the new pattern node's start-sorted candidate list.
	cands []xmltree.NodeID
	// axis and upward define the structural relation: upward means the
	// new node is the pattern parent of the bound column.
	axis   pattern.Axis
	upward bool

	tree    *xmltree.Tree
	starts  []int                   // cands' start positions
	inCands map[xmltree.NodeID]bool // membership for upward paths
	cur     Tuple
	pending []xmltree.NodeID
	buf     Tuple
	emitted int64
}

// NewBindJoin constructs the operator.
func NewBindJoin(tree *xmltree.Tree, input Operator, boundCol int, cands []xmltree.NodeID, axis pattern.Axis, upward bool) *BindJoin {
	b := &BindJoin{
		input: input, boundCol: boundCol, cands: cands,
		axis: axis, upward: upward, tree: tree,
	}
	b.starts = make([]int, len(cands))
	for i, id := range cands {
		b.starts[i] = tree.Node(id).Start
	}
	if upward {
		b.inCands = make(map[xmltree.NodeID]bool, len(cands))
		for _, id := range cands {
			b.inCands[id] = true
		}
	}
	return b
}

func (b *BindJoin) Open() error {
	b.cur, b.pending, b.emitted = nil, nil, 0
	return b.input.Open()
}

func (b *BindJoin) Close() error { return b.input.Close() }

func (b *BindJoin) Emitted() int64 { return b.emitted }

func (b *BindJoin) Next() (Tuple, bool, error) {
	for {
		if len(b.pending) > 0 {
			v := b.pending[0]
			b.pending = b.pending[1:]
			if b.buf == nil {
				b.buf = make(Tuple, len(b.cur)+1)
			}
			copy(b.buf, b.cur)
			b.buf[len(b.cur)] = v
			b.emitted++
			return b.buf, true, nil
		}
		in, ok, err := b.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		// The input tuple buffer is reused by our child; keep a copy
		// while we expand its matches.
		if b.cur == nil || len(b.cur) != len(in) {
			b.cur = make(Tuple, len(in))
		}
		copy(b.cur, in)
		b.pending = b.expand(b.cur[b.boundCol])
	}
}

// expand returns the candidate nodes related to the bound node.
func (b *BindJoin) expand(bound xmltree.NodeID) []xmltree.NodeID {
	n := b.tree.Node(bound)
	switch {
	case !b.upward && b.axis == pattern.Descendant:
		lo := sort.SearchInts(b.starts, n.Start+1)
		hi := sort.SearchInts(b.starts, n.End)
		return b.cands[lo:hi]
	case !b.upward && b.axis == pattern.Child:
		var out []xmltree.NodeID
		for c := n.FirstChild; c != xmltree.InvalidNode; c = b.tree.Node(c).NextSibling {
			i := sort.SearchInts(b.starts, b.tree.Node(c).Start)
			if i < len(b.cands) && b.cands[i] == c {
				out = append(out, c)
			}
		}
		return out
	case b.upward && b.axis == pattern.Descendant:
		var out []xmltree.NodeID
		for p := n.Parent; p != xmltree.InvalidNode; p = b.tree.Node(p).Parent {
			if b.inCands[p] {
				out = append(out, p)
			}
		}
		return out
	default: // upward child axis: only the direct parent qualifies
		if p := n.Parent; p != xmltree.InvalidNode && b.inCands[p] {
			return []xmltree.NodeID{p}
		}
		return nil
	}
}

// Stats reports one execution.
type Stats struct {
	// Results is the final answer size.
	Results int64
	// StepActual[i] is the actual intermediate-result size after join
	// step i of the plan (StepActual[0] is the first scan's output).
	StepActual []int64
	// StepEstimate mirrors the plan's predicted sizes for convenience.
	StepEstimate []float64
}

// Execute runs a planner join order over the tree and returns the
// actual size of every intermediate result alongside the plan's
// estimates. The result count is exactly the pattern's answer size.
func Execute(t *xmltree.Tree, p *pattern.Pattern, plan *planner.Plan, resolve match.Resolver) (*Stats, error) {
	if len(plan.Steps) == 0 {
		return nil, fmt.Errorf("exec: empty plan")
	}
	parent := map[*pattern.Node]*pattern.Node{}
	for _, e := range p.Edges() {
		parent[e[1]] = e[0]
	}
	colOf := map[*pattern.Node]int{plan.Steps[0].Added: 0}

	first, err := resolve(plan.Steps[0].Added.PredName())
	if err != nil {
		return nil, err
	}
	var root Operator = NewScan(first)
	ops := []Operator{root}
	for i, step := range plan.Steps[1:] {
		q := step.Added
		cands, err := resolve(q.PredName())
		if err != nil {
			return nil, err
		}
		var boundQ *pattern.Node
		var upward bool
		var axis pattern.Axis
		if pq, ok := parent[q]; ok {
			if _, bound := colOf[pq]; bound {
				boundQ, upward, axis = pq, false, q.Axis
			}
		}
		if boundQ == nil {
			// q must be the pattern parent of some bound node.
			for bq := range colOf {
				if parent[bq] == q {
					boundQ, upward, axis = bq, true, bq.Axis
					break
				}
			}
		}
		if boundQ == nil {
			return nil, fmt.Errorf("exec: plan step %d joins disconnected node %s", i+1, q.Test)
		}
		root = NewBindJoin(t, root, colOf[boundQ], cands, axis, upward)
		ops = append(ops, root)
		colOf[q] = len(colOf)
	}

	if err := root.Open(); err != nil {
		return nil, err
	}
	defer root.Close()
	var results int64
	for {
		_, ok, err := root.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		results++
	}
	stats := &Stats{Results: results}
	for i, op := range ops {
		stats.StepActual = append(stats.StepActual, op.Emitted())
		stats.StepEstimate = append(stats.StepEstimate, plan.Steps[i].Estimate)
	}
	return stats, nil
}

// TotalIntermediate sums the intermediate (non-final) tuple counts — a
// machine-independent proxy for plan execution cost.
func (s *Stats) TotalIntermediate() int64 {
	var total int64
	for i, n := range s.StepActual {
		if i == 0 || i == len(s.StepActual)-1 {
			continue // base scan and final result are plan-independent
		}
		total += n
	}
	return total
}
