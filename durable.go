package xmlest

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"xmlest/internal/fsio"
	"xmlest/internal/metrics"
	"xmlest/internal/shard"
	"xmlest/internal/wal"
	"xmlest/internal/xmltree"
)

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// Options shape the estimator summaries checkpoints persist. The
	// grid size is pinned in the data directory's manifest: reopening
	// with a different grid is an error, since checkpointed summaries
	// serve as-is.
	Options Options

	// Fsync is the WAL fsync policy: "always" (the default — an
	// acknowledged append is on disk before the ack), "interval"
	// (background fsync every FsyncInterval; a crash can lose up to one
	// interval of acks) or "off" (the OS decides; fastest, weakest).
	Fsync string

	// FsyncInterval is the "interval" policy's cadence (default 100ms).
	FsyncInterval time.Duration

	// Bootstrap supplies the initial corpus and predicate vocabulary.
	// It runs on every boot: a fresh data directory adopts the returned
	// database outright, while a directory holding a checkpoint keeps
	// only its predicate recipe (the corpus already lives in the
	// checkpoint). Nil starts empty with the all-tags vocabulary.
	Bootstrap func() (*Database, error)

	// FS substitutes the filesystem the WAL, manifest and checkpoints
	// run on; nil means the real one. It exists for fault-injection
	// testing and operational drills (fsio.NewFaultFS) — production
	// deployments leave it nil.
	FS fsio.FS
}

// DegradedError marks a durable mutation refused or failed because a
// storage component is in a failed state. See shard.DegradedError.
type DegradedError = shard.DegradedError

// RecoveryInfo describes one boot-time recovery. See
// shard.RecoveryInfo.
type RecoveryInfo = shard.RecoveryInfo

// DurabilityStats is the durable layer's introspection surface. See
// shard.DurabilityStats.
type DurabilityStats = shard.DurabilityStats

// OpenDurable opens a database backed by a data directory with
// LSM-style durability: every Append is written to a segmented,
// CRC-framed write-ahead log (fsynced per policy) before it is
// installed — and before it is acknowledged — checkpoints persist
// shard summaries behind an atomically-renamed manifest and truncate
// the covered log, and boot-time recovery replays manifest + WAL tail.
// Recovery is exact: replayed batches are the same raw documents, so
// post-recovery estimates are bit-identical to a process that never
// crashed, and the serving version never regresses below any version
// a client was acknowledged at.
//
// Close the returned database to checkpoint and release the WAL; a
// process that dies without Close recovers on the next OpenDurable.
func OpenDurable(dir string, cfg DurableConfig) (*Database, error) {
	mode := wal.ModeAlways
	if cfg.Fsync != "" {
		var err error
		if mode, err = wal.ParseMode(cfg.Fsync); err != nil {
			return nil, err
		}
	}
	var bootstrap func() (*shard.Store, error)
	if cfg.Bootstrap != nil {
		bootstrap = func() (*shard.Store, error) {
			db, err := cfg.Bootstrap()
			if err != nil {
				return nil, err
			}
			return db.store, nil
		}
	}
	d, err := shard.OpenDurable(dir, bootstrap, shard.DurableConfig{
		Options: cfg.Options,
		WAL:     wal.Options{Mode: mode, Interval: cfg.FsyncInterval},
		FS:      cfg.FS,
	})
	if err != nil {
		return nil, err
	}
	return &Database{store: d.Store(), durable: d}, nil
}

// Durable reports whether the database is backed by a data directory.
func (db *Database) Durable() bool { return db.durable != nil }

// Checkpoint persists the serving set (shard summaries + manifest) and
// truncates the covered WAL prefix, returning the pinned version. It
// errors on a non-durable database.
func (db *Database) Checkpoint() (uint64, error) {
	if db.durable == nil {
		return 0, fmt.Errorf("xmlest: Checkpoint on a non-durable database (use OpenDurable)")
	}
	return db.durable.Checkpoint()
}

// Close checkpoints a durable database and releases its WAL; the data
// directory can then be reopened with OpenDurable. On a non-durable
// database it is a no-op.
func (db *Database) Close() error {
	if db.durable == nil {
		return nil
	}
	return db.durable.Close()
}

// DurabilityStats snapshots the durable layer (WAL size, fsync
// watermarks, checkpoint state, boot recovery). ok is false for
// non-durable databases.
func (db *Database) DurabilityStats() (DurabilityStats, bool) {
	if db.durable == nil {
		return DurabilityStats{}, false
	}
	return db.durable.Stats(), true
}

// Degraded reports the failed storage component of a durable database,
// if any: "wal" when the log has sealed after an I/O failure (appends
// refused until restart) or "checkpoint" when the last checkpoint
// attempt failed (clears on the next success). Reads are never
// degraded. Always false for non-durable databases.
func (db *Database) Degraded() (component, reason string, degraded bool) {
	if db.durable == nil {
		return "", "", false
	}
	return db.durable.Degraded()
}

// Collectors returns the database's metric collectors — the store's
// compiled-binding counters plus, for durable databases, the WAL,
// group-commit, checkpoint, recovery and append-pipeline families. The
// daemon registers them on its metrics registry, beside its own
// serving-set families; embedders can do the same with their own
// registry.
func (db *Database) Collectors() []metrics.Collector {
	cs := []metrics.Collector{db.store}
	if db.durable != nil {
		cs = append(cs, db.durable)
	}
	return cs
}

// DurableSeq returns the newest WAL sequence known fsynced — a
// lock-free read fit for the append hot path. Zero on non-durable
// databases.
func (db *Database) DurableSeq() uint64 {
	if db.durable == nil {
		return 0
	}
	return db.durable.DurableSeq()
}

// DurableBackend exposes the underlying durable store, the surface the
// replication layer ships from (leader) and applies into (follower) —
// see internal/replica. Nil for non-durable databases. Like Store, it
// hands an embedder the internal engine; use it for wiring, not for
// bypassing the facade's append path.
func (db *Database) DurableBackend() *shard.DurableStore { return db.durable }

// Recovery reports what boot-time recovery rebuilt. ok is false for
// non-durable databases.
func (db *Database) Recovery() (RecoveryInfo, bool) {
	if db.durable == nil {
		return RecoveryInfo{}, false
	}
	return db.durable.Recovery(), true
}

// appendDurable routes one batch of raw documents through the WAL.
func (db *Database) appendDurable(docs [][]byte) (ShardInfo, error) {
	sh, _, err := db.durable.AppendDocs(docs)
	if err != nil {
		return ShardInfo{}, err
	}
	return shardInfo(sh), nil
}

// slurp drains readers into raw per-document byte slices.
func slurp(readers []io.Reader) ([][]byte, error) {
	docs := make([][]byte, len(readers))
	for i, r := range readers {
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		docs[i] = b
	}
	return docs, nil
}

// serializeDocs renders each document of a tree (each child of the
// dummy root) as standalone XML, so an already-parsed tree can be
// re-logged as raw documents. Parsing is whitespace-trimming, so the
// indentation WriteXML adds does not change the replayed tree.
func serializeDocs(tree *xmltree.Tree) ([][]byte, error) {
	var docs [][]byte
	for c := tree.Nodes[tree.Root()].FirstChild; c != xmltree.InvalidNode; c = tree.Nodes[c].NextSibling {
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, tree, c); err != nil {
			return nil, fmt.Errorf("xmlest: durable append: %w", err)
		}
		docs = append(docs, buf.Bytes())
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("xmlest: refusing to append an empty tree")
	}
	return docs, nil
}
