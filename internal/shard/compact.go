package shard

import (
	"fmt"
	"math"
	"sort"

	"xmlest/internal/xmltree"
)

// CompactionPolicy is the size-tiered merge policy: shards whose node
// counts fall in the same size tier (a factor-of-TierRatio band) are
// merged together once enough of them accumulate, bounding both the
// shard count and the per-merge write amplification, in the spirit of
// size-tiered LSM compaction.
type CompactionPolicy struct {
	// TierRatio is the size band: shards s with
	// floor(log_TierRatio(nodes)) equal share a tier. <= 1 means the
	// default of 4.
	TierRatio float64

	// MinMerge is the minimum number of same-tier shards worth merging.
	// < 2 means the default of 2.
	MinMerge int

	// MaxShards caps the shard count: when exceeded and no tier
	// qualifies, the smallest MinMerge tree-backed shards merge anyway.
	// <= 0 means the default of 8.
	MaxShards int
}

// DefaultCompactionPolicy mirrors common size-tiered settings.
var DefaultCompactionPolicy = CompactionPolicy{TierRatio: 4, MinMerge: 2, MaxShards: 8}

func (p CompactionPolicy) normalized() CompactionPolicy {
	if p.TierRatio <= 1 {
		p.TierRatio = 4
	}
	if p.MinMerge < 2 {
		p.MinMerge = 2
	}
	if p.MaxShards <= 0 {
		p.MaxShards = 8
	}
	return p
}

// tier buckets a node count into its size tier.
func (p CompactionPolicy) tier(nodes int) int {
	if nodes < 1 {
		nodes = 1
	}
	return int(math.Log(float64(nodes)) / math.Log(p.TierRatio))
}

// plan selects the shards to merge from a snapshot: the smallest tier
// holding at least MinMerge tree-backed shards, or — when the snapshot
// exceeds MaxShards and no tier qualifies — the MinMerge smallest
// tree-backed shards. A nil result means nothing to do. Deterministic:
// ties break by shard id.
func (p CompactionPolicy) plan(set *Set) []*Shard {
	p = p.normalized()
	backed := make([]*Shard, 0, len(set.shards))
	for _, sh := range set.shards {
		if !sh.SummaryOnly() {
			backed = append(backed, sh)
		}
	}
	sort.Slice(backed, func(i, j int) bool {
		if backed[i].nodes != backed[j].nodes {
			return backed[i].nodes < backed[j].nodes
		}
		return backed[i].id < backed[j].id
	})
	byTier := make(map[int][]*Shard)
	for _, sh := range backed {
		t := p.tier(sh.nodes)
		byTier[t] = append(byTier[t], sh)
	}
	tiers := make([]int, 0, len(byTier))
	for t := range byTier {
		tiers = append(tiers, t)
	}
	sort.Ints(tiers)
	for _, t := range tiers {
		if len(byTier[t]) >= p.MinMerge {
			return byTier[t]
		}
	}
	if len(set.shards) > p.MaxShards && len(backed) >= p.MinMerge {
		return backed[:p.MinMerge]
	}
	return nil
}

// Compact runs one round of size-tiered compaction: it picks a merge
// group per the policy, rebuilds the group's documents into a single
// shard (catalog and summaries included) entirely off the serving path,
// and swaps the group for the merged shard in one atomic install. It
// returns the number of shards merged away (0 when nothing qualified).
//
// Merging is exact: by the additivity of per-document summaries, the
// merged shard answers every query with the same total the group did
// (see xmltree.Merge and DESIGN.md). Concurrent Appends and Drops are
// safe; if a group member is dropped while the merge is running, the
// round is abandoned and retried against the new snapshot.
func (st *Store) Compact(policy CompactionPolicy) (int, error) {
	for attempt := 0; attempt < 3; attempt++ {
		snap := st.Current()
		group := policy.plan(snap)
		if len(group) < 2 {
			return 0, nil
		}
		// Rebuild off the serving path: merge the documents, materialize
		// the catalog from the current spec, and pre-build summaries for
		// every active option.
		trees := make([]*xmltree.Tree, len(group))
		for i, sh := range group {
			trees[i] = sh.tree
		}
		mergedTree := xmltree.Merge(trees...)
		cat := st.Spec().Build(mergedTree)
		merged, err := st.newShard(mergedTree, cat)
		if err != nil {
			return 0, fmt.Errorf("shard: compaction rebuild: %w", err)
		}
		// The merged shard covers every WAL record its group covered, so
		// a checkpoint containing it can truncate through all of them.
		for _, sh := range group {
			if sh.walSeq > merged.walSeq {
				merged.walSeq = sh.walSeq
			}
		}

		inGroup := make(map[uint64]bool, len(group))
		for _, sh := range group {
			inGroup[sh.id] = true
		}
		st.writeMu.Lock()
		cur := st.Current()
		present := 0
		for _, sh := range cur.shards {
			if inGroup[sh.id] {
				present++
			}
		}
		if present != len(group) {
			// A group member was dropped (or already compacted) while we
			// were merging; throw the rebuild away and retry on the new
			// snapshot.
			st.writeMu.Unlock()
			continue
		}
		next := make([]*Shard, 0, len(cur.shards)-len(group)+1)
		inserted := false
		for _, sh := range cur.shards {
			if inGroup[sh.id] {
				if !inserted {
					next = append(next, merged)
					inserted = true
				}
				continue
			}
			next = append(next, sh)
		}
		merged.installedAt = cur.version + 1
		st.install(next, cur.version+1)
		st.writeMu.Unlock()
		return len(group), nil
	}
	return 0, nil
}
