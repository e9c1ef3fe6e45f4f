// Package wal is the estimation daemon's write-ahead log: a segmented,
// CRC-framed, length-prefixed append log of raw document batches.
//
// Durability contract: an /append is acknowledged only after its batch
// is appended here (and fsynced, per policy) and its shard installed,
// so a crash after the ack can always rebuild the shard by replaying
// the log. Each record carries the serving-set version the batch was
// installed (and acknowledged) at, so recovery can land replayed shards
// at their original versions and the client-visible version watermark
// never regresses across a restart.
//
// On-disk layout: the log directory holds segment files named
// <firstSeq>.wal (zero-padded decimal). A segment starts with an
// 8-byte magic header and continues with framed records:
//
//	uint32 LE payload length
//	uint32 LE CRC32-C of the payload
//	payload:
//	  byte    record kind (1 = document batch)
//	  uvarint sequence number
//	  uvarint ack version
//	  uvarint document count
//	  per document: uvarint byte length, raw XML bytes
//
// A torn tail — a partial frame or CRC mismatch from a crash mid-write
// — is detected on open and the segment is truncated back to its last
// valid record; corruption never propagates into replay and never
// panics the decoder.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/fsio"
)

// Mode is the fsync policy.
type Mode int

const (
	// ModeAlways fsyncs after every append: an acknowledged batch is on
	// disk before the ack. The safest and slowest policy.
	ModeAlways Mode = iota
	// ModeInterval fsyncs on a background cadence (Options.Interval):
	// a crash can lose up to one interval of acknowledged batches.
	ModeInterval
	// ModeOff never fsyncs during serving (only on close and segment
	// roll bookkeeping); the OS decides when bytes reach disk.
	ModeOff
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAlways:
		return "always"
	case ModeInterval:
		return "interval"
	case ModeOff:
		return "off"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -fsync flag spelling.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "always":
		return ModeAlways, nil
	case "interval":
		return ModeInterval, nil
	case "off":
		return ModeOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want always, interval or off)", s)
}

// Options tunes a log. The zero value fsyncs on every append and rolls
// segments at DefaultSegmentBytes.
type Options struct {
	// Mode is the fsync policy.
	Mode Mode

	// Interval is the ModeInterval fsync cadence; <= 0 means
	// DefaultInterval. Ignored by the other modes.
	Interval time.Duration

	// SegmentBytes rolls to a new segment once the active one exceeds
	// this size; <= 0 means DefaultSegmentBytes.
	SegmentBytes int64

	// FS is the filesystem the log runs on; nil means the real one
	// (fsio.OS). Tests substitute a fault-injecting implementation.
	FS fsio.FS
}

// Defaults for the zero Options.
const (
	DefaultInterval     = 100 * time.Millisecond
	DefaultSegmentBytes = 64 << 20
)

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FS == nil {
		o.FS = fsio.OS
	}
	return o
}

// Record is one logged document batch.
type Record struct {
	// Seq is the record's log-unique, strictly increasing sequence
	// number, assigned by Append.
	Seq uint64
	// Version is the serving-set version the batch was installed at —
	// the version the appender acknowledged to its client.
	Version uint64
	// Docs are the batch's raw XML documents, one per document. During
	// replay the slices alias the segment buffer and are only valid
	// until the callback returns.
	Docs [][]byte
}

// SegmentInfo describes one on-disk segment.
type SegmentInfo struct {
	// Path is the segment file path.
	Path string
	// FirstSeq is the sequence the segment was created at (from its
	// name); Records may start later if earlier ones were truncated.
	FirstSeq uint64
	// LastSeq is the last valid record's sequence (0 when empty).
	LastSeq uint64
	// Records counts the valid records.
	Records int
	// Bytes is the file size.
	Bytes int64
	// TornBytes counts trailing bytes past the last valid record — a
	// torn tail from a crash, or garbage. Zero for a clean segment.
	TornBytes int64
}

// Record framing constants.
const (
	segSuffix   = ".wal"
	headerLen   = 8
	frameLen    = 8 // uint32 length + uint32 crc
	kindBatch   = 1
	maxDocBytes = 1 << 30 // decoder sanity bound on a single document

	// maxRecordBytes bounds one record's payload: decoders reject
	// anything larger before allocating, so a corrupt length prefix
	// cannot force a huge allocation.
	maxRecordBytes = 1 << 28
)

var segMagic = [headerLen]byte{'X', 'Q', 'W', 'A', 'L', '0', '0', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends serialize internally.
type Log struct {
	dir  string
	opts Options
	fs   fsio.FS

	mu         sync.Mutex
	active     fsio.File
	activePath string
	activeSize int64
	activeSeq  uint64 // first seq of the active segment (its name)
	activeLast uint64 // last seq written to the active segment (0: none)
	activeRecs int    // records in the active segment
	nextSeq    uint64
	lastSeq    atomic.Uint64
	durableSeq atomic.Uint64 // highest seq known fsynced
	totalBytes int64         // closed segments' bytes (active excluded)
	closedSegs []SegmentInfo

	flushStop chan struct{}
	flushDone chan struct{}
	closed    bool
	// fsyncs counts successful data fsyncs of segment files — the
	// denominator group commit amortizes. Segment-creation syncs are
	// excluded; they are bookkeeping, not batch durability.
	fsyncs atomic.Uint64
	// groupBuf is AppendGroup's concatenation scratch, reused across
	// groups while the lock is held.
	groupBuf []byte
	// failedErr seals the log: once any write, fsync or segment-roll
	// operation fails, every subsequent Append, Sync and Close fails
	// with it. The seal is deliberate and sticky — after an fsync
	// failure the kernel may have dropped the dirty pages, so a later
	// "successful" fsync proves nothing about earlier bytes (the
	// Postgres fsync-gate lesson). No append is ever acknowledged
	// after an unreported sync failure.
	failedErr error
}

// Open opens (or creates) the log in dir, truncating any torn tail of
// the newest segment back to its last valid record so appends resume
// from a clean point. Records already in the log are left in place;
// replay them with Replay.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listFS(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS, nextSeq: 1}
	for i, seg := range segs {
		last := i == len(segs)-1
		if seg.TornBytes > 0 && !last {
			// Only the newest segment can legitimately be torn (a crash
			// mid-append); closed segments were fsynced at roll. A hole in
			// the interior would make replay silently skip acknowledged
			// records while later segments still replay — refuse instead.
			return nil, fmt.Errorf("wal: segment %s is corrupt (%d bytes past the last valid record); refusing to open",
				seg.Path, seg.TornBytes)
		}
		if seg.TornBytes > 0 && last {
			// Crash mid-append: drop the torn tail so new appends start
			// at a valid frame boundary.
			if err := l.fs.Truncate(seg.Path, seg.Bytes-seg.TornBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.Path, err)
			}
			seg.Bytes -= seg.TornBytes
			seg.TornBytes = 0
		}
		if seg.LastSeq >= l.nextSeq {
			l.nextSeq = seg.LastSeq + 1
		}
		if seg.FirstSeq >= l.nextSeq {
			l.nextSeq = seg.FirstSeq
		}
		if !last {
			l.totalBytes += seg.Bytes
			l.closedSegs = append(l.closedSegs, seg)
			continue
		}
		if seg.Bytes < headerLen {
			// The whole file was garbage (bad or missing magic): recreate
			// it below rather than appending records with no header.
			if err := l.fs.Remove(seg.Path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		f, err := l.fs.OpenFile(seg.Path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.active, l.activePath, l.activeSize, l.activeSeq = f, seg.Path, seg.Bytes, seg.FirstSeq
		l.activeLast, l.activeRecs = seg.LastSeq, seg.Records
	}
	l.lastSeq.Store(l.nextSeq - 1)
	// Everything already on disk predates this process; treat it as
	// durable — it survived whatever ended the previous process.
	l.durableSeq.Store(l.nextSeq - 1)
	if l.active == nil {
		if err := l.newSegmentLocked(l.nextSeq); err != nil {
			return nil, err
		}
	}
	if opts.Mode == ModeInterval {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop()
	}
	return l, nil
}

// flushLoop is the ModeInterval background fsync, stopped by Close. A
// failed flush seals the log under l.mu, and AppendGroup checks the
// seal under l.mu: no group is written, so none is acknowledged, after
// a flush failure, and the sticky error makes the next Append, Sync or
// Close fail loudly instead of the flush being silently dropped.
func (l *Log) flushLoop() {
	defer close(l.flushDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// Append logs one batch of raw documents at the given ack version,
// assigns it the next sequence number, and — under ModeAlways — fsyncs
// before returning. An error means the batch must not be acknowledged.
func (l *Log) Append(version uint64, docs [][]byte) (uint64, error) {
	if len(docs) == 0 {
		return 0, fmt.Errorf("wal: refusing to append an empty batch")
	}
	return l.AppendGroup([]GroupRecord{{Version: version, Docs: docs}})
}

// GroupRecord is one batch of a group append: its ack version and raw
// documents. Sequences are assigned contiguously by AppendGroup.
type GroupRecord struct {
	Version uint64
	Docs    [][]byte
}

// AppendGroup logs a group of batches contiguously — one segment write
// and, under ModeAlways, one fsync for the whole group — and returns
// the first assigned sequence number: batch i is record firstSeq+i.
// This is the group-commit primitive: the fsync cost is amortized over
// every batch in the group.
//
// An error refuses the WHOLE group — no batch in it may be
// acknowledged. Either no frame landed (a failed write is rolled back
// and the log sealed) or the durability of all of them is unknown (a
// failed fsync seals the log). There is no partial outcome to report:
// the frames are written in one contiguous syscall and fsynced
// together, so the batches stand or fall as a unit.
func (l *Log) AppendGroup(recs []GroupRecord) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("wal: refusing to append an empty group")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.failedErr != nil {
		return 0, l.sealedErr()
	}
	first := l.nextSeq
	buf := l.groupBuf[:0]
	for i, rec := range recs {
		if len(rec.Docs) == 0 {
			return 0, fmt.Errorf("wal: refusing to append an empty batch")
		}
		frame, err := encodeFrame(Record{Seq: first + uint64(i), Version: rec.Version, Docs: rec.Docs})
		if err != nil {
			return 0, err
		}
		buf = append(buf, frame...)
	}
	if cap(buf) <= maxRetainedGroupBuf {
		l.groupBuf = buf // keep the scratch for the next group
	} else {
		l.groupBuf = nil // an outlier group; don't pin its capacity
	}
	if l.activeSize+int64(len(buf)) > l.opts.SegmentBytes && l.activeSize > headerLen {
		if err := l.rollLocked(first); err != nil {
			return 0, err
		}
	}
	if _, err := l.active.Write(buf); err != nil {
		// Roll the partial frames back: later appends must never land
		// after garbage, or recovery's torn-tail truncation — which cuts
		// at the FIRST invalid frame of the newest segment — would
		// silently discard every acknowledged record behind it. Either
		// way the log seals: a disk that failed a write may fail the
		// next one worse, and un-acked errors are safe while optimistic
		// retries against a sick disk are not.
		if terr := l.active.Truncate(l.activeSize); terr != nil {
			l.sealLocked(fmt.Errorf("wal: append failed (%v) and rollback failed (%v)", err, terr))
			return 0, fmt.Errorf("wal: append failed (%v) and rollback failed (%v); log sealed", err, terr)
		}
		l.sealLocked(fmt.Errorf("wal: append: %w", err))
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	last := first + uint64(len(recs)) - 1
	l.activeSize += int64(len(buf))
	l.activeLast = last
	l.activeRecs += len(recs)
	l.nextSeq = last + 1
	l.lastSeq.Store(last)
	if l.opts.Mode == ModeAlways {
		if err := l.active.Sync(); err != nil {
			// The records may or may not be on disk — recovery will keep
			// any that are — but none are ever acknowledged, and the seal
			// guarantees nothing later is acknowledged either.
			l.sealLocked(fmt.Errorf("wal: fsync: %w", err))
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		l.fsyncs.Add(1)
		l.durableSeq.Store(last)
	}
	return first, nil
}

// maxRetainedGroupBuf bounds the group-concatenation scratch kept
// between AppendGroup calls.
const maxRetainedGroupBuf = 4 << 20

// sealLocked records the log's first fatal I/O error; once set, every
// subsequent Append, Sync and Close fails with it.
func (l *Log) sealLocked(err error) {
	if l.failedErr == nil {
		l.failedErr = err
	}
}

func (l *Log) sealedErr() error {
	return fmt.Errorf("wal: log sealed after I/O failure: %w", l.failedErr)
}

// Err reports the sticky I/O failure that sealed the log, if any. A
// sealed log refuses all appends; the store above reports itself
// degraded and the daemon keeps serving reads.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failedErr == nil {
		return nil
	}
	return l.sealedErr()
}

// Sync fsyncs the active segment and advances the durable watermark to
// every record written before the call.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.failedErr != nil {
		return l.sealedErr()
	}
	if l.closed || l.active == nil {
		return nil
	}
	last := l.lastSeq.Load()
	if last <= l.durableSeq.Load() {
		// Nothing unsynced: skip the fsync. Beyond the saved syscall,
		// this keeps segment rolls in ModeAlways (where every ack is
		// already durable) from taking an avoidable I/O failure path.
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.sealLocked(fmt.Errorf("wal: fsync: %w", err))
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.fsyncs.Add(1)
	if last > l.durableSeq.Load() {
		l.durableSeq.Store(last)
	}
	return nil
}

// Fsyncs returns the number of successful data fsyncs since Open — the
// cost group commit amortizes; appends/Fsyncs is the achieved grouping.
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// LastSeq returns the highest sequence number appended (0 when empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// SetMinSeq raises the log's sequence floor: the next append is
// assigned at least seq+1, and the last/durable watermarks report at
// least seq. The durable layer calls this with the manifest's
// truncation point at boot, so sequence numbering can never restart
// below already-checkpointed records even if the log directory lost
// its (possibly never-fsynced, under ModeOff) post-truncation segment
// — reused sequence numbers would be silently skipped by the next
// recovery's replay.
func (l *Log) SetMinSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq <= seq {
		l.nextSeq = seq + 1
	}
	if l.lastSeq.Load() < seq {
		l.lastSeq.Store(seq)
	}
	if l.durableSeq.Load() < seq {
		// Records <= seq live in checkpointed shards, which are durable
		// by definition of the manifest that recorded seq.
		l.durableSeq.Store(seq)
	}
}

// DurableSeq returns the highest sequence number known to be fsynced.
// Under ModeOff it only advances on Close and explicit Sync.
func (l *Log) DurableSeq() uint64 { return l.durableSeq.Load() }

// Size returns the log's total on-disk bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalBytes + l.activeSize
}

// Segments lists the log's segments in sequence order.
func (l *Log) Segments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.closedSegs)+1)
	out = append(out, l.closedSegs...)
	out = append(out, SegmentInfo{
		Path:     l.activePath,
		FirstSeq: l.activeSeq,
		LastSeq:  l.activeLast,
		Records:  l.activeRecs,
		Bytes:    l.activeSize,
	})
	return out
}

// Replay streams every valid record with Seq > after, in sequence
// order, to fn. Replay on an open log is only sound before serving
// starts (boot-time recovery); concurrent appends are not replayed.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	return scanDirFS(l.fs, l.dir, after, fn)
}

// Truncate drops every segment whose records all have Seq <= through:
// their batches are fully covered by a checkpoint and are no longer
// needed for recovery. The active segment is rolled first when it
// qualifies, so a checkpoint of the whole log empties it to one fresh
// segment.
func (l *Log) Truncate(through uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.lastSeq.Load() <= through && l.activeSize > headerLen {
		if err := l.rollLocked(l.nextSeq); err != nil {
			return err
		}
	}
	// kept must not alias closedSegs: a failed remove returns with the
	// not-yet-visited tail intact so a later Truncate can retry.
	kept := make([]SegmentInfo, 0, len(l.closedSegs))
	for i, seg := range l.closedSegs {
		// An empty closed segment cannot arise (rolls happen on append),
		// but treat one as covered to be safe.
		covered := seg.LastSeq <= through && seg.FirstSeq <= through
		if !covered {
			kept = append(kept, seg)
			continue
		}
		// A failed remove is retryable — the covered segment lingers but
		// replay skips its records — so it does not seal the log.
		if err := l.fs.Remove(seg.Path); err != nil {
			l.closedSegs = append(kept, l.closedSegs[i:]...)
			return fmt.Errorf("wal: truncate: %w", err)
		}
		l.totalBytes -= seg.Bytes
	}
	l.closedSegs = kept
	if l.opts.Mode != ModeOff {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
	}
	return nil
}

// Close fsyncs and closes the log. Safe to call once; the log is
// unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.flushStop != nil {
		close(l.flushStop)
		l.mu.Unlock()
		<-l.flushDone // the loop may be inside Sync; let it finish
		l.mu.Lock()
	}
	err := l.syncLocked()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
	}
	l.closed = true
	l.mu.Unlock()
	return err
}

// rollLocked retires the active segment and starts a fresh one whose
// name is the next sequence to be written. The replacement is created
// first: a creation failure leaves the active segment fully usable, so
// a roll (e.g. inside a checkpoint's truncate) is retryable and does
// not seal the log.
func (l *Log) rollLocked(firstSeq uint64) error {
	f, path, err := l.createSegment(firstSeq)
	if err != nil {
		return err
	}
	if err := l.syncLocked(); err != nil {
		f.Close()
		_ = l.fs.Remove(path)
		return err
	}
	if err := l.active.Close(); err != nil {
		// The old segment's handle failed to close after a clean fsync;
		// its buffered state is unknowable, so the log seals.
		f.Close()
		l.active = nil
		l.sealLocked(fmt.Errorf("wal: roll: %w", err))
		return fmt.Errorf("wal: roll: %w", err)
	}
	l.closedSegs = append(l.closedSegs, SegmentInfo{
		Path:     l.activePath,
		FirstSeq: l.activeSeq,
		LastSeq:  l.activeLast,
		Records:  l.activeRecs,
		Bytes:    l.activeSize,
	})
	l.totalBytes += l.activeSize
	l.active, l.activePath, l.activeSize, l.activeSeq = f, path, headerLen, firstSeq
	l.activeLast, l.activeRecs = 0, 0
	return nil
}

// createSegment creates, headers and (mode permitting) fsyncs a fresh
// segment file without touching the log's active state.
func (l *Log) createSegment(firstSeq uint64) (fsio.File, string, error) {
	path := filepath.Join(l.dir, segName(firstSeq))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("wal: %w", err)
	}
	if l.opts.Mode != ModeOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, "", fmt.Errorf("wal: %w", err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			f.Close()
			return nil, "", fmt.Errorf("wal: create segment: %w", err)
		}
	}
	return f, path, nil
}

// newSegmentLocked creates and opens a fresh active segment. A failure
// seals the log: callers on this path have no active segment to fall
// back to, so there is nowhere correct to append.
func (l *Log) newSegmentLocked(firstSeq uint64) error {
	f, path, err := l.createSegment(firstSeq)
	if err != nil {
		l.sealLocked(err)
		return err
	}
	l.active, l.activePath, l.activeSize, l.activeSeq = f, path, headerLen, firstSeq
	l.activeLast, l.activeRecs = 0, 0
	return nil
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%020d%s", firstSeq, segSuffix)
}

// segmentPaths lists segment files by name only — no content reads —
// sorted by first sequence.
func segmentPaths(fsys fsio.FS, dir string) ([]SegmentInfo, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		firstSeq, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // not a segment
		}
		segs = append(segs, SegmentInfo{Path: filepath.Join(dir, name), FirstSeq: firstSeq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].FirstSeq < segs[j].FirstSeq })
	return segs, nil
}

// List reads segment metadata without opening the log for writing (and
// without truncating torn tails) — the read-only view `xqest wal` and
// boot-time recovery share.
func List(dir string) ([]SegmentInfo, error) {
	return listFS(fsio.OS, dir)
}

func listFS(fsys fsio.FS, dir string) ([]SegmentInfo, error) {
	segs, err := segmentPaths(fsys, dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		info := &segs[i]
		data, err := fsys.ReadFile(info.Path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		info.Bytes = int64(len(data))
		valid := scanSegment(data, func(rec Record) error {
			info.Records++
			info.LastSeq = rec.Seq
			return nil
		})
		info.TornBytes = info.Bytes - valid
	}
	return segs, nil
}

// ScanDir streams every valid record with Seq > after across all
// segments, in sequence order, to fn. Each segment is read and scanned
// exactly once — recovery over a large un-checkpointed log is bounded
// by one pass — and segments whose whole range precedes `after` are
// skipped without being read (a segment's records all fall below the
// next segment's first sequence). Torn or corrupt segment tails end
// that segment's scan at its last valid record; fn errors abort.
func ScanDir(dir string, after uint64, fn func(Record) error) error {
	return scanDirFS(fsio.OS, dir, after, fn)
}

func scanDirFS(fsys fsio.FS, dir string, after uint64, fn func(Record) error) error {
	segs, err := segmentPaths(fsys, dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].FirstSeq <= after+1 {
			continue // every record here is <= after
		}
		data, err := fsys.ReadFile(seg.Path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		var cbErr error
		scanSegment(data, func(rec Record) error {
			if rec.Seq <= after {
				return nil
			}
			if err := fn(rec); err != nil {
				cbErr = err
				return err
			}
			return nil
		})
		if cbErr != nil {
			return cbErr
		}
	}
	return nil
}

// scanSegment decodes the valid record prefix of a segment image,
// calling fn per record, and returns the byte length of that prefix.
// A fn error stops the scan (the returned length still counts the
// record that errored). It never panics and allocates nothing beyond
// the per-record doc-slice headers: documents alias data.
func scanSegment(data []byte, fn func(Record) error) int64 {
	if len(data) < headerLen || [headerLen]byte(data[:headerLen]) != segMagic {
		return 0
	}
	off := int64(headerLen)
	rest := data[headerLen:]
	for {
		rec, n, ok := decodeFrame(rest)
		if !ok {
			return off
		}
		off += int64(n)
		rest = rest[n:]
		if err := fn(rec); err != nil {
			return off
		}
	}
}

// decodeFrame decodes one framed record from the head of data,
// returning the record, its framed length, and whether it was valid.
func decodeFrame(data []byte) (Record, int, bool) {
	if len(data) < frameLen {
		return Record{}, 0, false
	}
	n := binary.LittleEndian.Uint32(data)
	crc := binary.LittleEndian.Uint32(data[4:])
	if n > maxRecordBytes || int64(n) > int64(len(data)-frameLen) {
		return Record{}, 0, false
	}
	payload := data[frameLen : frameLen+int(n)]
	if crc32.Checksum(payload, crcTable) != crc {
		return Record{}, 0, false
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		return Record{}, 0, false
	}
	return rec, frameLen + int(n), true
}

// DecodeRecord decodes one record payload (the bytes inside a frame).
// Returned document slices alias payload. It is exported for the
// fuzzer and the CLI inspector; it never panics and never allocates
// more than the payload's own length.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) < 1 || payload[0] != kindBatch {
		return Record{}, fmt.Errorf("wal: bad record kind")
	}
	rest := payload[1:]
	var rec Record
	var ok bool
	if rec.Seq, rest, ok = uvarint(rest); !ok || rec.Seq == 0 {
		return Record{}, fmt.Errorf("wal: bad record seq")
	}
	if rec.Version, rest, ok = uvarint(rest); !ok {
		return Record{}, fmt.Errorf("wal: bad record version")
	}
	ndocs, rest, ok := uvarint(rest)
	if !ok || ndocs == 0 || ndocs > uint64(len(rest)) {
		// Each document costs at least its one-byte length prefix, so a
		// count above the remaining bytes is corrupt — reject before
		// allocating the slice headers.
		return Record{}, fmt.Errorf("wal: bad document count")
	}
	rec.Docs = make([][]byte, 0, ndocs)
	for i := uint64(0); i < ndocs; i++ {
		n, r, ok := uvarint(rest)
		if !ok || n > maxDocBytes || n > uint64(len(r)) {
			return Record{}, fmt.Errorf("wal: bad document length")
		}
		rec.Docs = append(rec.Docs, r[:n])
		rest = r[n:]
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes in record", len(rest))
	}
	return rec, nil
}

// EncodeRecord encodes a record payload (the inverse of DecodeRecord).
func EncodeRecord(rec Record) ([]byte, error) {
	if len(rec.Docs) == 0 {
		return nil, fmt.Errorf("wal: empty batch")
	}
	if rec.Seq == 0 {
		return nil, fmt.Errorf("wal: record seq must be positive")
	}
	size := 1 + 3*binary.MaxVarintLen64
	for _, d := range rec.Docs {
		size += binary.MaxVarintLen64 + len(d)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, kindBatch)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendUvarint(buf, rec.Version)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Docs)))
	for _, d := range rec.Docs {
		buf = binary.AppendUvarint(buf, uint64(len(d)))
		buf = append(buf, d...)
	}
	return buf, nil
}

// encodeFrame wraps an encoded record in the length+CRC frame.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := EncodeRecord(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	buf := make([]byte, frameLen, frameLen+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return append(buf, payload...), nil
}

// uvarint decodes one uvarint from the head of b.
func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, false
	}
	return v, b[n:], true
}

// SyncDir fsyncs a directory so entry creations and removals are
// durable. Kept as a thin wrapper over fsio for callers outside the
// FS-threaded paths.
func SyncDir(dir string) error {
	return fsio.OS.SyncDir(dir)
}
