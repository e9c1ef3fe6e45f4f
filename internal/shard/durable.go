package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/core"
	"xmlest/internal/fsio"
	"xmlest/internal/manifest"
	"xmlest/internal/metrics"
	"xmlest/internal/predicate"
	"xmlest/internal/trace"
	"xmlest/internal/wal"
	"xmlest/internal/xmltree"
)

// Data-directory layout:
//
//	<dir>/MANIFEST.json   the checkpoint catalog (internal/manifest)
//	<dir>/shards/*.xqs    checkpointed XQS1 shard summaries
//	<dir>/wal/*.wal       write-ahead-log segments (internal/wal)
const (
	// WALDir is the write-ahead-log subdirectory of a data directory.
	WALDir = "wal"
	// ShardDir is the checkpointed-summaries subdirectory.
	ShardDir = "shards"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DurableConfig tunes a durable store.
type DurableConfig struct {
	// Options shape the summaries checkpoints persist. GridSize is
	// pinned in the manifest: reopening a data directory with a
	// different grid is an error, because checkpointed summaries are
	// served as-is and cannot be rebuilt from documents they no longer
	// have.
	Options core.Options

	// WAL tunes the write-ahead log: fsync policy and segment size.
	WAL wal.Options

	// FS is the filesystem the store (manifest, checkpoints, and —
	// unless WAL.FS overrides it — the WAL) runs on; nil means the real
	// one. Fault-injection tests substitute an fsio.FaultFS.
	FS fsio.FS
}

// DegradedError marks a mutation refused, or failed, because a storage
// component is in a failed state. Component is "wal" (sealed log —
// permanent until restart) or "checkpoint" (last checkpoint failed —
// clears when one succeeds); reads are unaffected either way.
type DegradedError struct {
	Component string
	Err       error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("shard: %s degraded: %v", e.Component, e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// RecoveryInfo describes one boot-time recovery.
type RecoveryInfo struct {
	// CheckpointShards counts shards loaded from the manifest;
	// CheckpointVersion is the manifest's pinned version.
	CheckpointShards  int
	CheckpointVersion uint64
	// ReplayedRecords and ReplayedDocs count the WAL tail replayed on
	// top of the checkpoint.
	ReplayedRecords int
	ReplayedDocs    int
	// SkippedRecords counts CRC-valid records whose documents failed to
	// parse — batches the original process rejected before
	// acknowledging, skipped identically here.
	SkippedRecords int
}

// DurabilityStats is the durable layer's state as a Go value, for
// embedders and tests; the daemon reports the same numbers through
// Collect.
type DurabilityStats struct {
	Dir   string
	Fsync string
	// WALSegments/WALBytes size the live log; LastSeq is the newest
	// appended record and DurableSeq the newest known fsynced.
	WALSegments int
	WALBytes    int64
	LastSeq     uint64
	DurableSeq  uint64
	// CheckpointVersion/CheckpointWALSeq describe the newest manifest;
	// Checkpoints counts checkpoints taken by this process.
	CheckpointVersion uint64
	CheckpointWALSeq  uint64
	Checkpoints       uint64
	// CheckpointFailures counts checkpoint attempts that failed; the
	// checkpoint loop retries with backoff, so a transient disk error
	// shows up here without degrading appends.
	CheckpointFailures uint64
	// Degraded reports a failed storage component: DegradedComponent is
	// "wal" (log sealed; appends refused until restart) or "checkpoint"
	// (last checkpoint failed; clears on the next success), with
	// DegradedReason the underlying error. Reads serve normally.
	Degraded          bool
	DegradedComponent string
	DegradedReason    string
	// GroupCommit counts the write path's commit groups.
	GroupCommit GroupCommitStats
	// Recovery echoes the boot-time replay.
	Recovery RecoveryInfo
}

// GroupCommitStats counts how well concurrent appends amortize
// fsyncs: Groups commit groups holding Batches appends in all
// (Batches/Groups is the mean group size), and Fsyncs data fsyncs
// since open.
type GroupCommitStats struct {
	Groups  uint64
	Batches uint64
	Fsyncs  uint64
}

// DurableStore wraps a Store with LSM-style durability: every append
// is written (and fsynced, per policy) to a write-ahead log at the
// exact version it installs at, checkpoints persist the serving set's
// summaries behind an atomically-renamed manifest and truncate the
// covered log prefix, and OpenDurable replays manifest + WAL tail so
// a restart serves every acknowledged batch at a version no lower
// than the client observed.
type DurableStore struct {
	store   *Store
	log     *wal.Log
	dir     string
	fs      fsio.FS
	opts    core.Options
	walMode wal.Mode

	// cpMu serializes checkpoints (and the drop+checkpoint pair). The
	// files map — shard id to its persisted checkpoint entry, so
	// unchanged shards are never rewritten — is populated at boot and
	// then only touched under cpMu.
	cpMu  sync.Mutex
	files map[uint64]manifest.Shard

	recovery    RecoveryInfo
	checkpoints atomic.Uint64
	cpVersion   atomic.Uint64
	cpSeq       atomic.Uint64

	// cpErr is the last checkpoint failure (nil after a success): the
	// transient half of the degraded surface. The permanent half — a
	// sealed WAL — lives in the log itself (wal.Log.Err).
	cpErr      atomic.Pointer[string]
	cpFailures atomic.Uint64

	// Group-commit write pipeline: the ingest coalescer drains every
	// append batch queued behind the build stage into ONE parse +
	// summary build (so a burst of concurrent appends lands as one shard
	// with one WAL record instead of N); a group takes a submission slot
	// and goes to one of two long-lived build goroutines, so at most two
	// build at once. A finished build joins the ready list,
	// and whoever next holds the store's write lock commits the whole
	// list with one WAL group write. The histograms feed Collect; the
	// group-size histogram is also the group and batch count.
	ingestQ       chan *ingestReq
	groups        chan []*ingestReq // formed groups, to the build goroutines
	ingestDone    chan struct{}
	submitSlots   chan struct{}
	ingestMu      sync.RWMutex // guards ingestClosed against in-flight AppendDocs
	ingestClosed  bool
	ingestEnq     sync.WaitGroup // AppendDocs calls between closed-check and enqueue
	ingestWorkers sync.WaitGroup // the build goroutines
	readyMu       sync.Mutex
	ready         []*submission // built, waiting for a commit
	groupSizes    *metrics.Histogram
	queueWait     *metrics.Histogram

	// stages records per-stage durations of the append pipeline (queue
	// wait, coalesce wait, parse, build, WAL submit, fsync, install).
	// Appends are millisecond-scale, so every group is recorded — no
	// sampling — at the cost of a few wait-free atomics per group.
	stages *trace.Recorder
}

// Bounds of the append pipeline.
const (
	// maxIngestBytes caps one coalesced build: the greedy drain stops
	// taking batches once the group's documents reach this many bytes.
	maxIngestBytes = 8 << 20
	// ingestQueueDepth bounds batches waiting for the coalescer;
	// AppendDocs blocks once it is full.
	ingestQueueDepth = 256
)

// ingestReq is one AppendDocs batch waiting for the ingest coalescer;
// res delivers the committed (possibly shared) shard, or the error that
// refused the batch.
type ingestReq struct {
	docs [][]byte
	at   time.Time
	res  chan ingestRes
}

type ingestRes struct {
	sh  *Shard
	err error
}

// submission is one built shard on its way into the WAL: the documents
// of its one record and the append batches merged into it. The write
// lock holder that commits it sets err (nil when installed) and closes
// done.
type submission struct {
	docs  [][]byte
	sh    *Shard
	reqs  []*ingestReq
	built time.Time // joined the ready list
	err   error
	done  chan struct{}
}

// Degraded reports the store's failed component, if any: "wal" when
// the log has sealed after an I/O failure (appends are refused until
// the process restarts against a healthy disk), or "checkpoint" when
// the most recent checkpoint attempt failed (appends still work; the
// WAL simply keeps growing until a checkpoint succeeds). Reads are
// never degraded — the serving snapshot lives in memory.
func (d *DurableStore) Degraded() (component, reason string, degraded bool) {
	if err := d.log.Err(); err != nil {
		return "wal", err.Error(), true
	}
	if p := d.cpErr.Load(); p != nil {
		return "checkpoint", *p, true
	}
	return "", "", false
}

// OpenDurable opens a data directory, recovering whatever it holds:
// the manifest's checkpointed shards are loaded summary-only, the WAL
// tail past the manifest's truncation point is replayed as tree-backed
// shards at the versions their appends acknowledged, and the log is
// positioned for new appends.
//
// bootstrap supplies the initial store — predicate vocabulary plus
// seed corpus. It runs on every boot: a fresh directory adopts the
// bootstrapped store outright (its shards become the corpus the first
// checkpoint persists), while a directory with a checkpoint keeps only
// the bootstrapped predicate Spec, since its shards already live in
// the checkpoint. A nil bootstrap starts empty with the all-tags
// vocabulary — the pure-ingest daemon.
func OpenDurable(dir string, bootstrap func() (*Store, error), cfg DurableConfig) (*DurableStore, error) {
	opts := cfg.Options
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.GridSize == 0 {
		opts.GridSize = core.DefaultOptions.GridSize
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = fsio.OS
	}
	if cfg.WAL.FS == nil {
		cfg.WAL.FS = fsys
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: data dir: %w", err)
	}
	man, haveMan, err := manifest.LoadFS(fsys, dir)
	if err != nil {
		// A corrupt manifest is not silently discarded: that would boot
		// an empty database over a directory full of data.
		return nil, err
	}
	if haveMan && man.GridSize != opts.GridSize {
		return nil, fmt.Errorf(
			"shard: data dir %s was checkpointed with grid size %d, reopened with %d; use the original options",
			dir, man.GridSize, opts.GridSize)
	}

	var st *Store
	if bootstrap != nil {
		bs, err := bootstrap()
		if err != nil {
			return nil, fmt.Errorf("shard: bootstrap: %w", err)
		}
		if haveMan {
			// The bootstrap corpus already lives in the checkpoint; keep
			// only its predicate recipe so replayed shards speak the same
			// vocabulary.
			st = NewStore(bs.Spec())
		} else {
			st = bs
		}
	} else {
		st = NewStore(predicate.Spec{AllTags: true})
	}

	d := &DurableStore{
		store:   st,
		dir:     dir,
		fs:      fsys,
		opts:    opts,
		walMode: cfg.WAL.Mode,
		files:   make(map[uint64]manifest.Shard),
	}
	if haveMan {
		for _, entry := range man.Shards {
			est, err := loadShardEntry(fsys, dir, entry)
			if err != nil {
				return nil, err
			}
			sh := &Shard{
				id:       st.nextID.Add(1),
				docs:     entry.Docs,
				nodes:    entry.Nodes,
				prebuilt: est,
				walSeq:   entry.WALSeq,
			}
			d.installRecovered(sh)
			entry.ID = sh.id
			d.files[sh.id] = entry
		}
		st.setMinVersion(man.Version)
		d.recovery.CheckpointShards = len(man.Shards)
		d.recovery.CheckpointVersion = man.Version
		d.cpVersion.Store(man.Version)
		d.cpSeq.Store(man.WALSeq)
	}

	log, err := wal.Open(filepath.Join(dir, WALDir), cfg.WAL)
	if err != nil {
		return nil, err
	}
	d.log = log
	var after uint64
	if haveMan {
		after = man.WALSeq
		// The manifest's truncation point floors the sequence space: if
		// the log directory lost its post-truncation segment (ModeOff
		// skips the dir fsync; a restored backup may omit wal/ entirely),
		// numbering must still resume above every checkpointed record.
		log.SetMinSeq(man.WALSeq)
	}
	if err := log.Replay(after, d.replayRecord); err != nil {
		log.Close()
		return nil, fmt.Errorf("shard: wal replay: %w", err)
	}

	d.ingestQ = make(chan *ingestReq, ingestQueueDepth)
	d.ingestDone = make(chan struct{})
	// Two in-flight submissions: one group building while the previous
	// one commits (fsync). This is what makes coalescing engage — any
	// batch arriving while both slots are busy queues up and joins the
	// next group, so the number of shards installed per second tracks
	// the commit rate, not the append rate.
	d.submitSlots = make(chan struct{}, 2)
	// One long-lived build goroutine per slot: starting a goroutine per
	// group raised perfbench ingest-mixed's reader est_p99_us by 8-20%
	// (DESIGN.md, "Group commit").
	d.groups = make(chan []*ingestReq)
	for range cap(d.submitSlots) {
		d.ingestWorkers.Add(1)
		go d.buildLoop()
	}
	d.groupSizes = metrics.NewHistogram(metrics.ValueBounds)
	d.queueWait = metrics.NewHistogram(metrics.LatencyBounds)
	d.stages = trace.NewRecorder("xqest_append_stage_seconds",
		"Append pipeline stage durations.", trace.AppendStages...)
	// The coalescer starts only after recovery: replay installs shards
	// directly and must not race group commits.
	go d.ingestLoop()
	return d, nil
}

// replayRecord rebuilds one logged batch during recovery, landing it
// at the version its append acknowledged.
func (d *DurableStore) replayRecord(rec wal.Record) error {
	readers := make([]io.Reader, len(rec.Docs))
	for i, doc := range rec.Docs {
		readers[i] = bytes.NewReader(doc)
	}
	tree, err := xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
	if err != nil || tree.NumNodes() == 0 {
		// The record is CRC-valid, so these are the exact bytes the
		// original process saw — and parsing is deterministic, so it
		// rejected (and never acknowledged) this batch too. Skip it the
		// same way.
		d.recovery.SkippedRecords++
		return nil
	}
	cat := d.store.Spec().Build(tree)
	sh, err := d.store.newShard(tree, cat)
	if err != nil {
		return err
	}
	sh.walSeq = rec.Seq
	if rec.Version > 1 {
		d.store.setMinVersion(rec.Version - 1)
	}
	d.installRecovered(sh)
	d.recovery.ReplayedRecords++
	d.recovery.ReplayedDocs += len(rec.Docs)
	return nil
}

// installRecovered appends a recovered shard to the serving set
// (recovery is single-threaded; the lock is for form).
func (d *DurableStore) installRecovered(sh *Shard) {
	d.store.writeMu.Lock()
	defer d.store.writeMu.Unlock()
	d.store.appendLocked(sh)
}

// loadShardEntry reads and verifies one checkpointed summary.
func loadShardEntry(fsys fsio.FS, dir string, entry manifest.Shard) (*core.Estimator, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, entry.File))
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", entry.File, err)
	}
	if int64(len(data)) != entry.Bytes {
		return nil, fmt.Errorf("shard: checkpoint %s: %d bytes, manifest says %d (corrupt data directory)",
			entry.File, len(data), entry.Bytes)
	}
	if crc32.Checksum(data, crcTable) != entry.CRC32 {
		return nil, fmt.Errorf("shard: checkpoint %s: checksum mismatch (corrupt data directory)", entry.File)
	}
	est, err := core.UnmarshalEstimator(data)
	if err != nil {
		return nil, fmt.Errorf("shard: checkpoint %s: %w", entry.File, err)
	}
	return est, nil
}

// Store returns the wrapped serving store. Reads (Current, estimation)
// go straight to it; mutations that must be durable go through the
// DurableStore.
func (d *DurableStore) Store() *Store { return d.store }

// Recovery reports what boot-time recovery rebuilt.
func (d *DurableStore) Recovery() RecoveryInfo { return d.recovery }

// GridSize returns the grid size pinned in the data directory's
// manifest.
func (d *DurableStore) GridSize() int { return d.opts.GridSize }

// DurableSeq returns the newest WAL sequence known fsynced.
func (d *DurableStore) DurableSeq() uint64 { return d.log.DurableSeq() }

// AppendDocs durably lands one batch of raw XML documents. It is a
// three-stage pipeline:
//
//  1. Coalesce: the batch queues behind the build stage; the ingest
//     coalescer drains everything waiting into ONE parse + summary
//     build, so a burst of N concurrent appends costs one build, one
//     shard install, and one WAL record instead of N. A lone append
//     coalesces with nothing.
//  2. Build, outside every lock, at most two at once (the submission
//     slots): parse the (possibly merged) documents and build the
//     shard's summaries.
//  3. Commit: the built shard joins the ready list and its build
//     goroutine takes the store's write lock. Whoever holds the lock commits
//     every ready shard with one segment write + one fsync (always
//     policy), installs them all, and resolves each; a goroutine whose
//     shard an earlier holder committed finds the list empty.
//
// Batches merged into one build share a shard, a WAL record, a seq and
// an ack version — and therefore an all-or-nothing fate, the same
// contract a commit group already has. Recovery replays the merged
// record into the identical merged shard, so estimates stay
// bit-identical to the uncrashed process.
//
// An error means nothing was acknowledged or installed — a failed
// group write or fsync refuses the whole group.
func (d *DurableStore) AppendDocs(docs [][]byte) (*Shard, uint64, error) {
	if len(docs) == 0 {
		return nil, 0, fmt.Errorf("shard: refusing to append an empty batch")
	}
	if err := d.log.Err(); err != nil {
		// The log sealed on an earlier I/O failure; fail before doing
		// any parse work.
		return nil, 0, &DegradedError{Component: "wal", Err: err}
	}
	d.ingestMu.RLock()
	if d.ingestClosed {
		d.ingestMu.RUnlock()
		return nil, 0, fmt.Errorf("shard: store is closed")
	}
	d.ingestEnq.Add(1)
	d.ingestMu.RUnlock()
	r := &ingestReq{docs: docs, at: time.Now(), res: make(chan ingestRes, 1)}
	d.ingestQ <- r
	d.ingestEnq.Done()
	res := <-r.res
	if res.err != nil {
		return nil, 0, res.err
	}
	return res.sh, res.sh.walSeq, nil
}

// ingestLoop is the coalescer goroutine: it takes the first queued
// batch, waits for a submission slot, and only THEN drains everything
// else queued into the group — group formation happens as late as
// possible, so every batch that arrived while both slots were busy
// joins this group instead of becoming a premature singleton. The
// build runs on a build goroutine, so the loop immediately waits for
// the next batch and builds overlap the previous group's fsync. Close closes the queue; the loop dispatches what is left, then
// stops the build goroutines and returns once every build has
// committed.
func (d *DurableStore) ingestLoop() {
	for r := range d.ingestQ {
		d.dispatchIngest(r)
	}
	close(d.groups)
	d.ingestWorkers.Wait()
	close(d.ingestDone)
}

// formIngestGroup greedily drains the ingest queue behind first until
// the group's documents reach maxIngestBytes: a group is whatever
// queued while earlier builds and commits were in flight.
func (d *DurableStore) formIngestGroup(first *ingestReq) []*ingestReq {
	group := append(make([]*ingestReq, 0, 8), first)
	bytes := docBytes(first.docs)
	for bytes < maxIngestBytes {
		select {
		case r, ok := <-d.ingestQ:
			if !ok {
				return group
			}
			group = append(group, r)
			bytes += docBytes(r.docs)
		default:
			return group
		}
	}
	return group
}

// docBytes sums a batch's document sizes.
func docBytes(docs [][]byte) int {
	n := 0
	for _, doc := range docs {
		n += len(doc)
	}
	return n
}

// dispatchIngest waits for a submission slot, forms the group at the
// last possible moment (everything that queued while the slots were
// busy joins), and hands it to a build goroutine. Blocking here, on
// the coalescer goroutine, is what creates the coalescing pressure: while one group builds and another commits, arrivals queue
// and join the next, larger group. The slot is held until the group's
// commit resolves, so the install rate — and with it the serving set's
// shard count — tracks the commit cycle, not the raw append rate.
//
// Before draining, the coalescer yields once, so appenders that are
// already runnable — typically the callers just acknowledged by the
// commit that freed the slot — enqueue their next batch and join this
// group. On an idle machine the yield returns at once; on a busy one it
// is what keeps groups large (DESIGN.md, "Group commit").
func (d *DurableStore) dispatchIngest(first *ingestReq) {
	d.submitSlots <- struct{}{}
	runtime.Gosched()
	dispatched := time.Now()
	d.stages.Observe(trace.StageQueueWait, dispatched.Sub(first.at))
	group := d.formIngestGroup(first)
	d.stages.Observe(trace.StageCoalesceWait, time.Since(dispatched))
	d.groups <- group
}

// buildLoop is one build goroutine: it builds, commits and answers each
// group it is handed, then frees the group's submission slot.
func (d *DurableStore) buildLoop() {
	defer d.ingestWorkers.Done()
	for group := range d.groups {
		d.ingestGroup(group)
		<-d.submitSlots
	}
}

// ingestGroup builds one shard from every batch in the group, commits
// it and answers every batch. If the merged parse fails — one poisoned batch must not refuse its neighbors — each batch
// falls back to its own build, so exactly the malformed batches fail;
// the good ones commit together, one record each.
func (d *DurableStore) ingestGroup(group []*ingestReq) {
	var subs []*submission
	if len(group) > 1 {
		var docs [][]byte
		for _, r := range group {
			docs = append(docs, r.docs...)
		}
		if sh, err := d.buildShard(docs); err == nil {
			subs = append(subs, &submission{docs: docs, sh: sh, reqs: group})
			group = nil
		}
	}
	for _, r := range group {
		sh, err := d.buildShard(r.docs)
		if err != nil {
			r.res <- ingestRes{err: err}
			continue
		}
		subs = append(subs, &submission{docs: r.docs, sh: sh, reqs: []*ingestReq{r}})
	}
	if len(subs) > 0 {
		d.commit(subs)
	}
	for _, s := range subs {
		for _, r := range s.reqs {
			r.res <- ingestRes{sh: s.sh, err: s.err}
		}
	}
}

// buildShard is the append pipeline's build stage: parse + summary
// build, no locks held. Concurrency is bounded by the submission
// slots, not here.
func (d *DurableStore) buildShard(docs [][]byte) (*Shard, error) {
	readers := make([]io.Reader, len(docs))
	for i, doc := range docs {
		readers[i] = bytes.NewReader(doc)
	}
	start := time.Now()
	tree, err := xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
	if err != nil {
		return nil, err
	}
	if tree.NumNodes() == 0 {
		return nil, fmt.Errorf("shard: refusing to append an empty tree")
	}
	parsed := time.Now()
	d.stages.Observe(trace.StageParse, parsed.Sub(start))
	cat := d.store.Spec().Build(tree)
	sh, err := d.store.newShard(tree, cat)
	if err == nil {
		d.stages.Observe(trace.StageBuild, time.Since(parsed))
	}
	return sh, err
}

// commit puts built submissions on the ready list and returns once
// each is resolved. The caller then takes the store's write lock, and
// whoever holds the lock commits every submission then ready as one
// group: a build that finishes while the other slot's group holds the
// lock for its fsync waits on the list, together with anything else
// that finishes meanwhile, and the next holder commits them all with
// one fsync. A caller whose submissions an earlier holder already
// committed finds the list empty and just releases the lock.
func (d *DurableStore) commit(subs []*submission) {
	built := time.Now()
	for _, s := range subs {
		s.built = built
		s.done = make(chan struct{})
	}
	d.readyMu.Lock()
	d.ready = append(d.ready, subs...)
	d.readyMu.Unlock()

	d.store.writeMu.Lock()
	d.readyMu.Lock()
	group := d.ready
	d.ready = nil
	d.readyMu.Unlock()
	if len(group) > 0 {
		d.commitGroupLocked(group)
	}
	d.store.writeMu.Unlock()
	for _, s := range subs {
		<-s.done
	}
}

// commitGroupLocked commits one group under the store's write lock, so
// the versions encoded into the WAL records are exactly the versions
// the shards install at — the recovery invariant — and so the
// checkpoint's truncation-safety pin (set + lastSeq observed together
// under writeMu) keeps holding: the group's records and shards become
// visible to a checkpoint atomically. Every submission is resolved:
// all installed, or all refused.
func (d *DurableStore) commitGroupLocked(group []*submission) {
	now := time.Now()
	members := 0
	for _, s := range group {
		members += len(s.reqs)
		d.stages.Observe(trace.StageWALSubmit, now.Sub(s.built))
		for _, r := range s.reqs {
			// Measured from the append batch's arrival at the ingest
			// coalescer, so it covers the whole pre-commit wait a caller
			// experiences (build queue + ready list).
			d.queueWait.Observe(now.Sub(r.at).Seconds())
		}
	}
	d.groupSizes.Observe(float64(members))
	defer func() {
		for _, s := range group {
			close(s.done)
		}
	}()

	st := d.store
	base := st.Current().version
	recs := make([]wal.GroupRecord, len(group))
	for i, s := range group {
		recs[i] = wal.GroupRecord{Version: base + uint64(i) + 1, Docs: s.docs}
	}
	walStart := time.Now()
	first, err := d.log.AppendGroup(recs)
	d.stages.Observe(trace.StageFsyncWait, time.Since(walStart))
	if err != nil {
		// The whole group is refused: its frames either never landed or
		// their durability is unknown (the log sealed either way), so no
		// batch may be acknowledged and none is installed. Under a power
		// cut the un-fsynced frames are torn away on recovery — refused
		// batches stay absent.
		if d.log.Err() != nil {
			err = &DegradedError{Component: "wal", Err: err}
		}
		for _, s := range group {
			s.err = err
		}
		return
	}
	shs := make([]*Shard, len(group))
	for i, s := range group {
		s.sh.walSeq = first + uint64(i)
		shs[i] = s.sh
	}
	installStart := time.Now()
	st.appendGroupLocked(shs)
	d.stages.Observe(trace.StageInstall, time.Since(installStart))
}

// Checkpoint persists the serving set without the WAL: every live
// shard's summary lands as an XQS1 file (shards already persisted by
// an earlier checkpoint keep their files untouched), the manifest
// swaps in atomically, orphaned shard files are collected, and WAL
// segments wholly covered by the checkpoint are deleted. It returns
// the pinned version. Appends and estimates proceed concurrently; a
// batch landing mid-checkpoint simply stays in the WAL for the next
// one.
func (d *DurableStore) Checkpoint() (uint64, error) {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	return d.checkpointGuarded()
}

// checkpointGuarded runs one checkpoint attempt under cpMu, keeping
// the degraded surface in sync: a failure records the reason and bumps
// the failure counter, a success clears it. A checkpoint is attempted
// even when the WAL has sealed — it can still persist every already-
// acknowledged batch, shrinking what a restart must replay.
func (d *DurableStore) checkpointGuarded() (uint64, error) {
	v, err := d.checkpointLocked()
	if err != nil {
		d.cpFailures.Add(1)
		reason := err.Error()
		d.cpErr.Store(&reason)
		return 0, &DegradedError{Component: "checkpoint", Err: err}
	}
	d.cpErr.Store(nil)
	return v, nil
}

func (d *DurableStore) checkpointLocked() (uint64, error) {
	st := d.store
	// Pin the set and the log watermark together under the write lock:
	// appends log and install atomically under it, so every record with
	// seq <= lastSeq has its shard in set (or merged into one, or
	// dropped) — the truncation-safety invariant.
	st.writeMu.Lock()
	set := st.Current()
	lastSeq := d.log.LastSeq()
	st.writeMu.Unlock()

	shardDir := filepath.Join(d.dir, ShardDir)
	if err := d.fs.MkdirAll(shardDir, 0o755); err != nil {
		return 0, fmt.Errorf("shard: checkpoint: %w", err)
	}
	entries := make([]manifest.Shard, 0, set.Len())
	written := make(map[uint64]manifest.Shard)
	for _, sh := range set.Shards() {
		entry, ok := d.files[sh.id]
		if !ok {
			est, err := sh.Summary(d.opts)
			if err != nil {
				return 0, fmt.Errorf("shard: checkpoint: %w", err)
			}
			blob, err := est.MarshalBinary()
			if err != nil {
				return 0, fmt.Errorf("shard: checkpoint: %w", err)
			}
			rel := filepath.Join(ShardDir, fmt.Sprintf("cp-%d-%d.xqs", set.Version(), sh.id))
			if err := writeFileSync(d.fs, filepath.Join(d.dir, rel), blob); err != nil {
				return 0, err
			}
			entry = manifest.Shard{
				ID:     sh.id,
				File:   rel,
				Docs:   sh.docs,
				Nodes:  sh.nodes,
				WALSeq: sh.walSeq,
				Bytes:  int64(len(blob)),
				CRC32:  crc32.Checksum(blob, crcTable),
			}
			written[sh.id] = entry
		}
		entries = append(entries, entry)
	}
	if len(written) > 0 {
		// New shard files must be durable before the manifest points at
		// them.
		if err := d.fs.SyncDir(shardDir); err != nil {
			return 0, fmt.Errorf("shard: checkpoint: %w", err)
		}
	}
	man := &manifest.Manifest{
		FormatVersion: manifest.Format,
		Version:       set.Version(),
		WALSeq:        lastSeq,
		GridSize:      d.opts.GridSize,
		Shards:        entries,
	}
	if err := man.WriteFS(d.fs, d.dir); err != nil {
		return 0, err
	}
	// Only now are the new files reusable: recording them earlier would
	// let a retry after a failed round skip the directory fsync (or
	// reference files no durable manifest ever committed).
	for id, entry := range written {
		d.files[id] = entry
	}
	d.cpVersion.Store(set.Version())
	d.cpSeq.Store(lastSeq)
	d.checkpoints.Add(1)

	// The old manifest is gone; files it referenced that the new one
	// does not (compacted-away or dropped shards) are orphans now, as
	// are cache entries for shards no longer alive.
	d.gcShardFiles(shardDir, entries)

	if err := d.log.Truncate(lastSeq); err != nil {
		return 0, err
	}
	return set.Version(), nil
}

// gcShardFiles removes checkpoint files and cache entries no longer
// referenced. GC failures are cosmetic (stray files, never data loss)
// and deliberately unreported.
func (d *DurableStore) gcShardFiles(shardDir string, live []manifest.Shard) {
	liveFile := make(map[string]bool, len(live))
	liveID := make(map[uint64]bool, len(live))
	for _, e := range live {
		liveFile[filepath.Base(e.File)] = true
		liveID[e.ID] = true
	}
	for id := range d.files {
		if !liveID[id] {
			delete(d.files, id)
		}
	}
	dirents, err := d.fs.ReadDir(shardDir)
	if err != nil {
		return
	}
	for _, e := range dirents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xqs") || liveFile[e.Name()] {
			continue
		}
		_ = d.fs.Remove(filepath.Join(shardDir, e.Name()))
	}
}

// Drop durably removes a shard: the serving set drops it and a
// checkpoint immediately persists the new set — without one, the next
// recovery would resurrect the shard from its WAL record.
func (d *DurableStore) Drop(id uint64) (bool, error) {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if !d.store.Drop(id) {
		return false, nil
	}
	_, err := d.checkpointGuarded()
	return true, err
}

// Close drains and stops the ingest coalescer (committing and
// resolving every batch already accepted), checkpoints the serving
// set, and closes the WAL. The directory can be reopened with
// OpenDurable; a process that dies without Close recovers the same
// state from manifest + WAL instead.
func (d *DurableStore) Close() error {
	d.ingestMu.Lock()
	wasClosed := d.ingestClosed
	d.ingestClosed = true
	d.ingestMu.Unlock()
	if !wasClosed {
		d.ingestEnq.Wait() // every accepted AppendDocs has enqueued
		close(d.ingestQ)
	}
	<-d.ingestDone // the loop has drained the queue; every group committed
	_, err := d.Checkpoint()
	if cerr := d.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the durable layer.
func (d *DurableStore) Stats() DurabilityStats {
	segs := d.log.Segments()
	var bytes int64
	for _, s := range segs {
		bytes += s.Bytes
	}
	comp, reason, degraded := d.Degraded()
	gc := GroupCommitStats{
		Groups:  d.groupSizes.Count(),
		Batches: uint64(d.groupSizes.Sum()),
		Fsyncs:  d.log.Fsyncs(),
	}
	return DurabilityStats{
		Dir:                d.dir,
		Fsync:              d.walMode.String(),
		WALSegments:        len(segs),
		WALBytes:           bytes,
		LastSeq:            d.log.LastSeq(),
		DurableSeq:         d.log.DurableSeq(),
		CheckpointVersion:  d.cpVersion.Load(),
		CheckpointWALSeq:   d.cpSeq.Load(),
		Checkpoints:        d.checkpoints.Load(),
		CheckpointFailures: d.cpFailures.Load(),
		Degraded:           degraded,
		DegradedComponent:  comp,
		DegradedReason:     reason,
		GroupCommit:        gc,
		Recovery:           d.recovery,
	}
}

// writeFileSync writes data and fsyncs before closing.
func writeFileSync(fsys fsio.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	return nil
}
