// Package planner demonstrates the paper's motivating use case: a
// cost-based optimizer choosing among alternative join orders for a
// twig query using the estimator's intermediate-result size estimates
// (Section 1's department/faculty/TA/RA example).
//
// A twig over pattern nodes {n1..nk} is evaluated as a sequence of
// binary structural joins. The planner enumerates left-deep join orders
// whose prefixes are connected sub-twigs, estimates every intermediate
// result with the position-histogram estimator, and costs a plan as the
// sum of its intermediate result sizes (a standard surrogate for the
// I/O and memory cost of materializing intermediaries).
package planner

import (
	"fmt"
	"sort"
	"strings"

	"xmlest/internal/core"
	"xmlest/internal/pattern"
)

// Step is one join in a plan: after it executes, the sub-twig induced
// by Joined is materialized, with estimated cardinality Estimate.
type Step struct {
	// Added is the pattern node joined in at this step.
	Added *pattern.Node
	// Joined is the connected set of pattern nodes materialized after
	// the step, in pattern pre-order.
	Joined []*pattern.Node
	// Estimate is the estimated cardinality of the intermediate result.
	Estimate float64
}

// Plan is a left-deep join order with per-step estimates.
type Plan struct {
	Steps []*Step
	// Cost is the sum of intermediate-result estimates (every step but
	// the last, which is the final result and must be produced by any
	// plan).
	Cost float64
}

// String renders the plan as "a ⋈ b [est] ⋈ c [est] ...".
func (p *Plan) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		if i == 0 {
			b.WriteString(s.Added.Test)
			continue
		}
		fmt.Fprintf(&b, " + %s [%.1f]", s.Added.Test, s.Estimate)
	}
	return b.String()
}

// Enumerate returns every left-deep connected join order for the
// pattern, with estimated intermediate sizes, sorted by ascending cost.
// Patterns with more than MaxNodes nodes are rejected (factorial
// enumeration). Each connected node set is estimated once: the
// enumeration reaches the same set along many join orders.
func Enumerate(est *core.Estimator, p *pattern.Pattern) ([]*Plan, error) {
	plans, err := enumerate(p, memoInduced(est, p))
	if err != nil {
		return nil, err
	}
	sortPlans(plans)
	return plans, nil
}

// sortPlans orders plans by ascending cost, keeping enumeration order
// among equal costs.
func sortPlans(plans []*Plan) {
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Cost < plans[j].Cost })
}

// enumerate is Enumerate with the size of each joined set given by
// estimate, in enumeration order (unsorted).
func enumerate(p *pattern.Pattern, estimate func(joined []*pattern.Node) (float64, error)) ([]*Plan, error) {
	nodes := p.Nodes()
	if len(nodes) > maxNodes {
		return nil, fmt.Errorf("planner: pattern has %d nodes, max %d", len(nodes), maxNodes)
	}
	if len(nodes) < 2 {
		return nil, fmt.Errorf("planner: pattern must have at least two nodes")
	}
	parent := map[*pattern.Node]*pattern.Node{}
	for _, e := range p.Edges() {
		parent[e[1]] = e[0]
	}

	var plans []*Plan
	var recurse func(chosen []*pattern.Node, steps []*Step, cost float64)
	recurse = func(chosen []*pattern.Node, steps []*Step, cost float64) {
		if len(chosen) == len(nodes) {
			cp := make([]*Step, len(steps))
			copy(cp, steps)
			plans = append(plans, &Plan{Steps: cp, Cost: cost})
			return
		}
		for _, cand := range nodes {
			if containsNode(chosen, cand) || !connects(chosen, cand, parent) {
				continue
			}
			joined := append(append([]*pattern.Node{}, chosen...), cand)
			size, err := estimate(joined)
			if err != nil {
				// Estimation failures (missing predicate) abort the
				// whole enumeration; record by panicking through error
				// capture below is overkill — skip this branch.
				continue
			}
			step := &Step{Added: cand, Joined: joined, Estimate: size}
			extra := 0.0
			if len(joined) < len(nodes) {
				extra = size // intermediate result is materialized
			}
			recurse(joined, append(steps, step), cost+extra)
		}
	}
	for _, first := range nodes {
		size, err := estimate([]*pattern.Node{first})
		if err != nil {
			return nil, err
		}
		recurse([]*pattern.Node{first},
			[]*Step{{Added: first, Joined: []*pattern.Node{first}, Estimate: size}}, 0)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("planner: no estimable plans for %s", p)
	}
	return plans, nil
}

// maxNodes bounds the pattern size Enumerate accepts; it also keeps a
// set of pattern nodes within the bits of a uint.
const maxNodes = 8

// memoInduced returns estimateInduced memoized by the set of joined
// nodes, as a bitmask of their pre-order indexes. The induced sub-twig
// depends only on the set, not on the order it was joined in, so every
// join order reaching a set shares one estimate (and one error).
func memoInduced(est *core.Estimator, p *pattern.Pattern) func(joined []*pattern.Node) (float64, error) {
	index := map[*pattern.Node]uint{}
	for i, n := range p.Nodes() {
		index[n] = uint(i)
	}
	type induced struct {
		size float64
		err  error
	}
	memo := map[uint]induced{}
	return func(joined []*pattern.Node) (float64, error) {
		var set uint
		for _, n := range joined {
			set |= 1 << index[n]
		}
		r, ok := memo[set]
		if !ok {
			r.size, r.err = estimateInduced(est, p, joined)
			memo[set] = r
		}
		return r.size, r.err
	}
}

// Best returns the cheapest plan: the first of minimum cost in
// enumeration order, which is Enumerate's first plan without sorting
// the rest.
func Best(est *core.Estimator, p *pattern.Pattern) (*Plan, error) {
	plans, err := enumerate(p, memoInduced(est, p))
	if err != nil {
		return nil, err
	}
	best := plans[0]
	for _, pl := range plans[1:] {
		if pl.Cost < best.Cost {
			best = pl
		}
	}
	return best, nil
}

// containsNode reports membership.
func containsNode(set []*pattern.Node, n *pattern.Node) bool {
	for _, s := range set {
		if s == n {
			return true
		}
	}
	return false
}

// connects reports whether cand is adjacent (parent or child in the
// pattern tree) to some chosen node.
func connects(chosen []*pattern.Node, cand *pattern.Node, parent map[*pattern.Node]*pattern.Node) bool {
	for _, c := range chosen {
		if parent[cand] == c || parent[c] == cand {
			return true
		}
	}
	return false
}

// estimateInduced estimates the cardinality of the connected sub-twig
// induced by the joined set, using the estimator's sub-pattern
// machinery on a rebuilt pattern rooted at the set's topmost node.
func estimateInduced(est *core.Estimator, p *pattern.Pattern, joined []*pattern.Node) (float64, error) {
	if len(joined) == 1 {
		h, err := est.Histogram(joined[0].PredName())
		if err != nil {
			return 0, err
		}
		return h.Total(), nil
	}
	root := induceRoot(p, joined)
	sub := rebuild(root, joined)
	sp, err := est.EstimateSubPattern(&pattern.Pattern{Root: sub})
	if err != nil {
		return 0, err
	}
	return sp.Total(), nil
}

// induceRoot finds the unique topmost node of a connected set.
func induceRoot(p *pattern.Pattern, joined []*pattern.Node) *pattern.Node {
	parent := map[*pattern.Node]*pattern.Node{}
	for _, e := range p.Edges() {
		parent[e[1]] = e[0]
	}
	for _, n := range joined {
		if !containsNode(joined, parent[n]) {
			return n
		}
	}
	return joined[0]
}

// rebuild deep-copies the sub-pattern induced by the joined set.
func rebuild(n *pattern.Node, joined []*pattern.Node) *pattern.Node {
	out := &pattern.Node{Test: n.Test, Axis: n.Axis}
	for _, c := range n.Children {
		if containsNode(joined, c) {
			out.Children = append(out.Children, rebuild(c, joined))
		}
	}
	return out
}
