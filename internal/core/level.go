package core

import (
	"sort"

	"xmlest/internal/histogram"
	"xmlest/internal/xmltree"
)

// Level histograms: the parent-child extension. The EDBT paper
// estimates ancestor-descendant edges and lists parent-child estimation
// as tech-report work; this file implements the natural position-
// histogram formulation. A parent-child pair is exactly an
// ancestor-descendant pair whose depths differ by one, so splitting
// each predicate's position histogram by node depth and summing the
// primitive estimate over (depth d, depth d+1) histogram pairs yields a
// parent-child estimate with no new machinery — only the bucketing
// error of the underlying histograms remains.
//
// Storage stays modest: the per-depth histograms of one predicate
// partition its node list, so their total non-zero cells are bounded by
// the O(g) bound of Theorem 1 per occupied depth, and XML documents are
// shallow in practice.

// LevelHistograms is a predicate's position histogram split by depth.
type LevelHistograms struct {
	grid    histogram.Grid
	byDepth map[int]*histogram.Position
}

// BuildLevelHistograms constructs per-depth histograms for a node list.
func BuildLevelHistograms(t *xmltree.Tree, nodes []xmltree.NodeID, grid histogram.Grid) *LevelHistograms {
	return buildLevels(t, nodes, grid, func(id xmltree.NodeID) (int, int) {
		n := t.Node(id)
		return grid.Bucket(n.Start), grid.Bucket(n.End)
	})
}

// buildLevelHistogramsFromCells is BuildLevelHistograms with the
// per-node grid cells precomputed (the estimator construction path).
func buildLevelHistogramsFromCells(t *xmltree.Tree, nodes []xmltree.NodeID, nc *histogram.NodeCells) *LevelHistograms {
	return buildLevels(t, nodes, nc.Grid(), nc.Cell)
}

// buildLevels groups the nodes by depth and counts each depth's nodes
// into its cells through one accumulator at a time.
func buildLevels(t *xmltree.Tree, nodes []xmltree.NodeID, grid histogram.Grid, cell func(xmltree.NodeID) (int, int)) *LevelHistograms {
	byDepth := make(map[int][]xmltree.NodeID)
	for _, id := range nodes {
		d := t.Node(id).Depth
		byDepth[d] = append(byDepth[d], id)
	}
	l := &LevelHistograms{grid: grid, byDepth: make(map[int]*histogram.Position, len(byDepth))}
	for d, ids := range byDepth {
		acc := histogram.NewAccumulator(grid.Size())
		for _, id := range ids {
			i, j := cell(id)
			acc.Add(i, j, 1)
		}
		l.byDepth[d] = acc.Position(grid)
	}
	return l
}

// Depths returns the occupied depths in ascending order.
func (l *LevelHistograms) Depths() []int {
	out := make([]int, 0, len(l.byDepth))
	for d := range l.byDepth {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// At returns the histogram at a depth, or nil when no node of the
// predicate occurs there.
func (l *LevelHistograms) At(depth int) *histogram.Position {
	return l.byDepth[depth]
}

// Total returns the total node count across depths.
func (l *LevelHistograms) Total() float64 {
	var s float64
	for _, h := range l.byDepth {
		s += h.Total()
	}
	return s
}

// StorageBytes reports the compact encoding size summed over depths.
func (l *LevelHistograms) StorageBytes() int {
	total := 0
	for _, h := range l.byDepth {
		total += h.StorageBytes()
	}
	return total
}

// EstimateParentChild estimates the number of (parent, child) pairs
// between two predicates: the primitive ancestor-based estimate summed
// over depth-adjacent histogram pairs.
func EstimateParentChild(anc, desc *LevelHistograms) (float64, error) {
	return EstimateAtDistance(anc, desc, 1)
}

// EstimateAtDistance generalizes EstimateParentChild to any fixed depth
// distance k >= 1 (k = 1 is parent-child; larger k estimates
// grandparent-style path constraints).
func EstimateAtDistance(anc, desc *LevelHistograms, k int) (float64, error) {
	var total float64
	// Ascending depth order keeps the float accumulation deterministic
	// (map iteration order is not; near rounding boundaries the printed
	// estimate used to flip between runs).
	for _, d := range anc.Depths() {
		hb := desc.byDepth[d+k]
		if hb == nil {
			continue
		}
		est, err := EstimateAncestorBased(anc.byDepth[d], hb)
		if err != nil {
			return 0, err
		}
		total += est.Total()
	}
	return total, nil
}
