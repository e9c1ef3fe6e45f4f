package shard

import (
	"xmlest/internal/core"
)

// Marshal serializes the set's summaries for opts into an XQS2
// container blob: one XQS1 summary per shard plus shard metadata.
func (s *Set) Marshal(opts core.Options) ([]byte, error) {
	sums, err := s.Summaries(opts)
	if err != nil {
		return nil, err
	}
	return core.MarshalShardSet(sums)
}

// LoadSet reconstructs a serving set of summary-only shards from an
// XQS2 blob. The shards estimate but cannot count exactly, gain
// predicates, or compact.
func LoadSet(data []byte) (*Set, error) {
	sums, err := core.UnmarshalShardSet(data)
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, len(sums))
	for i, ss := range sums {
		shards[i] = &Shard{id: ss.ID, docs: ss.Docs, nodes: ss.Nodes, prebuilt: ss.Est}
	}
	return &Set{version: 1, shards: shards, lineage: newLineage()}, nil
}
