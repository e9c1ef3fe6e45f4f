package shard

import (
	"math/rand"
	"testing"
)

// extendsByScan is the reference for Set.extends: s holds every shard
// of prev, in prev's order, as its prefix, checked pointer by pointer.
func extendsByScan(s, prev *Set) bool {
	if prev == nil || len(s.shards) < len(prev.shards) {
		return false
	}
	for i, sh := range prev.shards {
		if s.shards[i] != sh {
			return false
		}
	}
	return true
}

// TestSetExtendsMatchesPrefixScan drives a store through a fixed-seed
// random sequence of appends, group appends, compactions, drops,
// wholesale replacements (as a replica snapshot installs) and version
// raises, and checks the O(1) lineage test against the prefix scan:
//   - it is sound: extends never holds where the scan does not, over
//     every pair of sets the sequence produced;
//   - it is exact within a lineage, and every append or version raise
//     extends its predecessor;
//   - on each swap it agrees with the scan, except that a new lineage
//     installed over the empty set gives up the empty prefix.
func TestSetExtendsMatchesPrefixScan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	st := NewStore(allTagsSpec())
	if _, err := st.EnsureSummaries(defaultOpts); err != nil {
		t.Fatal(err)
	}
	newShard := func() *Shard {
		tree := doc(1+rng.Intn(4), rng.Intn(3))
		sh, err := st.newShard(tree, st.Spec().Build(tree))
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	sets := []*Set{st.Current()}
	ops := map[string]int{}
	for step := 0; step < 400; step++ {
		prev := st.Current()
		var op string
		switch rng.Intn(6) {
		case 0:
			op = "append"
			if _, err := st.AppendTree(doc(1+rng.Intn(4), rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		case 1:
			op = "group"
			shs := make([]*Shard, 1+rng.Intn(3))
			for i := range shs {
				shs[i] = newShard()
			}
			st.writeMu.Lock()
			st.appendGroupLocked(shs)
			st.writeMu.Unlock()
		case 2:
			op = "compact"
			if _, err := st.Compact(CompactionPolicy{MaxShards: 4}); err != nil {
				t.Fatal(err)
			}
		case 3:
			op = "drop"
			if prev.Len() > 0 {
				st.Drop(prev.shards[rng.Intn(prev.Len())].id)
			}
		case 4:
			op = "replace"
			shs := make([]*Shard, rng.Intn(4))
			for i := range shs {
				shs[i] = newShard()
				shs[i].installedAt = prev.version + 1
			}
			st.writeMu.Lock()
			st.install(shs, prev.version+1)
			st.writeMu.Unlock()
		case 5:
			op = "raise"
			st.setMinVersion(prev.version + uint64(rng.Intn(3)))
		}
		next := st.Current()
		if next == prev {
			continue
		}
		ops[op]++
		appendLike := op == "append" || op == "group" || op == "raise"
		if appendLike && !next.extends(prev) {
			t.Fatalf("step %d (%s): successor does not extend its predecessor", step, op)
		}
		if got, want := next.extends(prev), extendsByScan(next, prev); got != want && !(prev.Len() == 0 && !appendLike) {
			t.Fatalf("step %d (%s): extends %v, prefix scan %v", step, op, got, want)
		}
		sets = append(sets, next)
	}
	for _, op := range []string{"append", "group", "compact", "drop", "replace", "raise"} {
		if ops[op] == 0 {
			t.Fatalf("the sequence never swapped the set by %s: %v", op, ops)
		}
	}
	for _, a := range sets {
		for _, b := range sets {
			got, want := b.extends(a), extendsByScan(b, a)
			if got && !want {
				t.Fatalf("set v%d extends v%d by lineage but not by the prefix scan", b.version, a.version)
			}
			if a.lineage == b.lineage && got != want {
				t.Fatalf("sets v%d and v%d share a lineage: extends %v, prefix scan %v", b.version, a.version, got, want)
			}
		}
	}
}
