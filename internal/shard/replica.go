// Replication hooks on the durable store: the leader-side stream
// source (durable WAL tailing + checkpoint snapshots) and the
// follower-side apply path (records installed at their leader-recorded
// sequences and ack versions, snapshots installed wholesale). Together
// they give cross-node exactness: a follower's serving set is built
// from the same checkpoint files and the same WAL records as a leader
// recovery would build, so estimates at the same version are
// bit-identical — the PR 4 crash-equivalence argument, stretched over
// a network.

package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"xmlest/internal/core"
	"xmlest/internal/manifest"
	"xmlest/internal/wal"
	"xmlest/internal/xmltree"
)

// ServingVersion returns the current serving-set version.
func (d *DurableStore) ServingVersion() uint64 { return d.store.Version() }

// ReadDurableWAL streams durable records after the given sequence to
// fn — the leader-side tail source (see wal.Log.ReadDurable for the
// concurrency and durability contract).
func (d *DurableStore) ReadDurableWAL(after uint64, fn func(wal.Record) error) (uint64, error) {
	return d.log.ReadDurable(after, fn)
}

// SnapshotForReplica decides whether a follower resuming at (from,
// version) needs a checkpoint snapshot before the WAL tail, and
// returns the manifest plus its shard-file blobs when so.
//
// Two cases need one. A follower behind the truncation point (from <
// checkpoint WALSeq) cannot be tailed to — its records are gone. And a
// FRESH follower (nothing applied: from 0, version still at its
// initial 1) tailing from zero would miss any serving shard that was
// never WAL-logged — the bootstrap corpus — so if such shards exist, a
// checkpoint is forced first and shipped. In every other case the WAL
// alone reproduces the leader's state exactly.
func (d *DurableStore) SnapshotForReplica(from, version uint64) (*manifest.Manifest, map[string][]byte, bool, error) {
	fresh := from == 0 && version <= 1
	needZero := false
	if fresh {
		for _, sh := range d.store.Current().Shards() {
			if sh.walSeq == 0 {
				needZero = true
				break
			}
		}
	}
	if needZero {
		if _, err := d.Checkpoint(); err != nil {
			return nil, nil, false, fmt.Errorf("shard: snapshot for fresh replica: %w", err)
		}
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if !needZero && from >= d.cpSeq.Load() {
		return nil, nil, false, nil // the WAL tail alone covers the gap
	}
	man, ok, err := manifest.LoadFS(d.fs, d.dir)
	if err != nil {
		return nil, nil, false, err
	}
	if !ok {
		return nil, nil, false, nil // no checkpoint yet; pure tail
	}
	files := make(map[string][]byte, len(man.Shards))
	for _, entry := range man.Shards {
		data, err := d.fs.ReadFile(filepath.Join(d.dir, entry.File))
		if err != nil {
			return nil, nil, false, fmt.Errorf("shard: snapshot file %s: %w", entry.File, err)
		}
		files[entry.File] = data
	}
	return man, files, true, nil
}

// buildReplicated parses one shipped record into a shard, off the
// locks. A nil shard (no error) means the batch is unparseable —
// parsing is deterministic, so the leader skipped it during its own
// recovery too; the record is still logged to keep sequence numbering
// faithful, but nothing installs.
func (d *DurableStore) buildReplicated(rec wal.Record) (*Shard, error) {
	readers := make([]io.Reader, len(rec.Docs))
	for i, doc := range rec.Docs {
		readers[i] = bytes.NewReader(doc)
	}
	tree, err := xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
	if err != nil || tree.NumNodes() == 0 {
		return nil, nil
	}
	cat := d.store.Spec().Build(tree)
	sh, err := d.store.newShard(tree, cat)
	if err != nil {
		return nil, err
	}
	sh.walSeq = rec.Seq
	return sh, nil
}

// ApplyReplicated durably logs and installs a batch of shipped records
// at their leader-recorded sequences and ack versions — the follower
// twin of commitGroup, with the same ordering guarantee: records land
// in the follower's own WAL (and are fsynced) BEFORE their shards
// become visible, so the follower never serves a version it has not
// durably applied, and its own recovery replays to exactly this state.
func (d *DurableStore) ApplyReplicated(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	shs := make([]*Shard, len(recs))
	for i, rec := range recs {
		sh, err := d.buildReplicated(rec)
		if err != nil {
			return err
		}
		shs[i] = sh // nil when the batch was skipped
	}
	st := d.store
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	v := st.Current().version
	for _, rec := range recs {
		if rec.Version <= v {
			return fmt.Errorf(
				"shard: replicated record seq %d carries version %d, which does not advance the serving version %d — refusing (diverged replica?)",
				rec.Seq, rec.Version, v)
		}
		v = rec.Version
	}
	if err := d.log.AppendReplicated(recs); err != nil {
		return err
	}
	if d.walMode != wal.ModeAlways {
		// The follower's honesty invariant does not bend to the fsync
		// policy: records must be durable before they are served.
		if err := d.log.Sync(); err != nil {
			return err
		}
	}
	installed := make([]*Shard, 0, len(shs))
	for i, sh := range shs {
		if sh == nil {
			continue
		}
		sh.installedAt = recs[i].Version
		installed = append(installed, sh)
	}
	st.extendLocked(installed, recs[len(recs)-1].Version)
	return nil
}

// ApplySnapshot atomically replaces the follower's state with a leader
// checkpoint: every shard file is verified against the manifest,
// written and fsynced, the manifest lands (atomic rename), the serving
// set jumps to the snapshot's version in one swap, and the local WAL
// floor moves to the snapshot's truncation point. A snapshot that
// would move this node backwards — an older version, or a WAL floor
// behind records already logged here — is refused: regressing a
// replica silently is how split brains are born.
func (d *DurableStore) ApplySnapshot(man *manifest.Manifest, files map[string][]byte) error {
	if man.GridSize != d.opts.GridSize {
		return fmt.Errorf("shard: snapshot grid size %d != local grid size %d — refusing", man.GridSize, d.opts.GridSize)
	}
	// Verify and unmarshal every blob before touching disk or state.
	ests := make([]*core.Estimator, len(man.Shards))
	for i, entry := range man.Shards {
		data, ok := files[entry.File]
		if !ok {
			return fmt.Errorf("shard: snapshot is missing file %s", entry.File)
		}
		if int64(len(data)) != entry.Bytes {
			return fmt.Errorf("shard: snapshot file %s: %d bytes, manifest says %d", entry.File, len(data), entry.Bytes)
		}
		if crc32.Checksum(data, crcTable) != entry.CRC32 {
			return fmt.Errorf("shard: snapshot file %s: checksum mismatch", entry.File)
		}
		est, err := core.UnmarshalEstimator(data)
		if err != nil {
			return fmt.Errorf("shard: snapshot file %s: %w", entry.File, err)
		}
		ests[i] = est
	}

	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	st := d.store
	if last := d.log.LastSeq(); last > man.WALSeq {
		return fmt.Errorf("shard: snapshot truncates at WAL seq %d but this node has logged up to %d — refusing to regress", man.WALSeq, last)
	}
	if cur := st.Version(); cur > man.Version {
		return fmt.Errorf("shard: snapshot at version %d is behind this node's version %d — refusing to regress", man.Version, cur)
	}

	shardDir := filepath.Join(d.dir, ShardDir)
	if err := d.fs.MkdirAll(shardDir, 0o755); err != nil {
		return fmt.Errorf("shard: snapshot install: %w", err)
	}
	entries := make([]manifest.Shard, len(man.Shards))
	shs := make([]*Shard, len(man.Shards))
	for i, entry := range man.Shards {
		if err := writeFileSync(d.fs, filepath.Join(d.dir, entry.File), files[entry.File]); err != nil {
			return err
		}
		sh := &Shard{
			id:          st.nextID.Add(1),
			docs:        entry.Docs,
			nodes:       entry.Nodes,
			prebuilt:    ests[i],
			walSeq:      entry.WALSeq,
			installedAt: man.Version,
		}
		entry.ID = sh.id
		entries[i], shs[i] = entry, sh
	}
	if err := d.fs.SyncDir(shardDir); err != nil {
		return fmt.Errorf("shard: snapshot install: %w", err)
	}
	local := &manifest.Manifest{
		FormatVersion: manifest.Format,
		Version:       man.Version,
		WALSeq:        man.WALSeq,
		GridSize:      man.GridSize,
		Shards:        entries,
	}
	if err := local.WriteFS(d.fs, d.dir); err != nil {
		return err
	}

	st.writeMu.Lock()
	st.install(shs, man.Version)
	st.writeMu.Unlock()

	d.files = make(map[uint64]manifest.Shard, len(entries))
	for _, entry := range entries {
		d.files[entry.ID] = entry
	}
	d.cpVersion.Store(man.Version)
	d.cpSeq.Store(man.WALSeq)
	d.gcShardFiles(shardDir, entries)
	d.log.SetMinSeq(man.WALSeq)
	if err := d.log.Truncate(man.WALSeq); err != nil {
		return err
	}
	return nil
}
