package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// XQS2 is the shard-set container format, the one format a saved
// summary ships in: a whole sharded summary in one blob, a one-shard
// summary included. It wraps one XQS1 summary (see store.go) per shard
// together with the shard metadata needed to reconstruct the serving
// set. XQS1 on its own is only the per-shard record, here and in the
// shard files of checkpoints and replicas.
//
// Layout:
//
//	magic "XQS2"
//	uvarint shard count
//	per shard:
//	  uvarint shard id
//	  uvarint document count
//	  uvarint node count
//	  XQS1 summary blob (uvarint length + bytes)
const shardSetMagic = "XQS2"

// ShardSummary pairs one shard's estimator with its identity and size
// metadata, the unit the XQS2 container stores.
type ShardSummary struct {
	ID    uint64
	Docs  int
	Nodes int
	Est   *Estimator
}

// MarshalShardSet serializes a set of shard summaries into one XQS2
// blob, in slice order.
func MarshalShardSet(shards []ShardSummary) ([]byte, error) {
	buf := []byte(shardSetMagic)
	buf = binary.AppendUvarint(buf, uint64(len(shards)))
	for _, s := range shards {
		if s.Est == nil {
			return nil, fmt.Errorf("core: shard %d has no estimator", s.ID)
		}
		blob, err := s.Est.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s.ID, err)
		}
		buf = binary.AppendUvarint(buf, s.ID)
		buf = binary.AppendUvarint(buf, uint64(s.Docs))
		buf = binary.AppendUvarint(buf, uint64(s.Nodes))
		buf = appendBlob(buf, blob)
	}
	return buf, nil
}

// UnmarshalShardSet reconstructs the shard summaries from an XQS2 blob.
// Each returned estimator is summary-only, exactly as if loaded through
// UnmarshalEstimator.
func UnmarshalShardSet(data []byte) ([]ShardSummary, error) {
	if !bytes.HasPrefix(data, []byte(shardSetMagic)) {
		return nil, fmt.Errorf("core: not an %s shard-set blob", shardSetMagic)
	}
	r := &blobReader{data: data, off: len(shardSetMagic)}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("core: shard count %d too large", n)
	}
	out := make([]ShardSummary, 0, n)
	for k := uint64(0); k < n; k++ {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		docs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		nodes, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		blob, err := r.blob()
		if err != nil {
			return nil, err
		}
		est, err := UnmarshalEstimator(blob)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", id, err)
		}
		out = append(out, ShardSummary{ID: id, Docs: int(docs), Nodes: int(nodes), Est: est})
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("core: %d trailing bytes after shard set", len(data)-r.off)
	}
	return out, nil
}
