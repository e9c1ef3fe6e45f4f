// Follower side: a loop that keeps one stream open to the leader,
// verifies every frame's CRC on receipt, applies records at their
// recorded ack versions (batched, so the follower's own WAL fsyncs
// amortize like the leader's group commit), installs snapshots when
// the leader says its position was truncated away, and reconnects with
// capped exponential backoff plus jitter when anything goes wrong —
// always resuming from its OWN durable watermark, so a follower
// restart never re-asks for the world and a lost record is always
// re-shipped.
//
// The follower is honest about what it serves: it never applies a
// record it has not durably logged (the Applier contract), and when
// the leader has been unreachable past the staleness budget it reports
// itself stale so the serving layer can degrade /healthz without ever
// refusing reads.

package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/manifest"
	"xmlest/internal/metrics"
	"xmlest/internal/wal"
)

// Applier is the durable store surface a follower applies into —
// implemented by shard.DurableStore.
type Applier interface {
	// ApplyReplicated durably logs and installs shipped records at
	// their recorded sequences and ack versions. No record may be
	// visible to reads before it is durable in the follower's own WAL.
	ApplyReplicated(recs []wal.Record) error
	// ApplySnapshot atomically replaces the follower's state with a
	// leader checkpoint: shard files, manifest, serving set and WAL
	// floor all move to the snapshot's version together.
	ApplySnapshot(man *manifest.Manifest, files map[string][]byte) error
	// DurableSeq is the follower's own durable WAL watermark — the
	// resume position.
	DurableSeq() uint64
	// ServingVersion is the follower's serving-set version.
	ServingVersion() uint64
	// GridSize is the follower's estimator grid; streams from a leader
	// with a different grid are refused (they can never converge).
	GridSize() int
}

// FollowerOptions tunes the catch-up loop.
type FollowerOptions struct {
	// Upstream is the leader's URL, for status reporting only (the
	// Transport owns the actual address).
	Upstream string
	// StalenessBudget is how long the leader may be silent before the
	// follower reports itself stale (degraded: replication). Zero or
	// negative disables staleness reporting. Default: disabled.
	StalenessBudget time.Duration
	// MinBackoff/MaxBackoff bound the reconnect backoff (exponential,
	// jittered). Defaults 100ms / 15s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// ReadTimeout is the per-frame read deadline: a stream that
	// delivers nothing (not even a heartbeat) for this long is cut and
	// reconnected. Default 10s.
	ReadTimeout time.Duration
	// ApplyBatch caps how many records one ApplyReplicated call may
	// carry (one follower-side fsync per batch). Default 64.
	ApplyBatch int
	// Logger receives lifecycle events; slog.Default when nil.
	Logger *slog.Logger
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.MinBackoff <= 0 {
		o.MinBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 15 * time.Second
	}
	if o.MaxBackoff < o.MinBackoff {
		o.MaxBackoff = o.MinBackoff
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 10 * time.Second
	}
	if o.ApplyBatch <= 0 {
		o.ApplyBatch = 64
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Follower replicates from a leader through a Transport. Create with
// NewFollower, drive with Run, inspect with Status.
type Follower struct {
	tr    Transport
	apply Applier
	opts  FollowerOptions

	startedAt     time.Time
	leaderSeq     atomic.Uint64
	leaderVersion atomic.Uint64
	lastContact   atomic.Int64 // unixnano of the last verified frame; 0 = never
	connected     atomic.Bool

	reconnects     atomic.Uint64 // successful stream opens
	streamErrors   atomic.Uint64
	framesRejected atomic.Uint64 // frames refused on CRC/decode
	recordsApplied atomic.Uint64
	snapsApplied   atomic.Uint64
	heartbeats     atomic.Uint64
	bytesReceived  atomic.Uint64

	errMu    sync.Mutex
	lastErr  string
	fatalErr string
}

// NewFollower builds a follower over the given transport and applier.
// startedAt is stamped here, not in Run: Status may race a Run that is
// still being scheduled.
func NewFollower(tr Transport, apply Applier, opts FollowerOptions) *Follower {
	return &Follower{tr: tr, apply: apply, opts: opts.withDefaults(), startedAt: time.Now()}
}

// errFatal marks errors that retrying cannot fix (grid mismatch);
// the loop still retries — the leader may be replaced — but at max
// backoff, and Status surfaces the condition prominently.
type errFatal struct{ err error }

func (e errFatal) Error() string { return e.err.Error() }
func (e errFatal) Unwrap() error { return e.err }

// Run drives the catch-up loop until ctx is cancelled.
func (f *Follower) Run(ctx context.Context) {
	backoff := f.opts.MinBackoff
	log := f.opts.Logger.With("component", "replica", "upstream", f.opts.Upstream)
	for ctx.Err() == nil {
		progress, err := f.streamOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			// Orderly End frame: reconnect immediately, no backoff.
			backoff = f.opts.MinBackoff
			continue
		}
		f.streamErrors.Add(1)
		f.setLastErr(err)
		var fatal errFatal
		if errors.As(err, &fatal) {
			backoff = f.opts.MaxBackoff
			log.Error("replication cannot converge", "err", err)
		} else {
			if progress {
				// The stream did useful work before failing; this is a
				// fresh fault, not a continuing outage.
				backoff = f.opts.MinBackoff
			}
			log.Warn("replication stream failed; backing off", "err", err, "backoff", backoff)
		}
		ctxSleep(ctx, backoff+time.Duration(rand.Int63n(int64(backoff/2)+1)))
		backoff = min(2*backoff, f.opts.MaxBackoff)
	}
}

func (f *Follower) setLastErr(err error) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	f.lastErr = err.Error()
	var fatal errFatal
	if errors.As(err, &fatal) {
		f.fatalErr = err.Error()
	}
}

func (f *Follower) touch() {
	f.lastContact.Store(time.Now().UnixNano())
}

// streamOnce opens one stream and consumes it to its end. It reports
// whether any state was applied (progress resets the backoff) and a
// nil error only for an orderly leader-initiated end.
func (f *Follower) streamOnce(ctx context.Context) (progress bool, err error) {
	st, err := f.tr.Open(ctx, f.apply.DurableSeq(), f.apply.ServingVersion())
	if err != nil {
		return false, err
	}
	f.connected.Store(true)
	f.reconnects.Add(1)
	defer func() {
		f.connected.Store(false)
		st.Close()
	}()

	// Reader goroutine: Next with a per-frame watchdog (a stalled
	// stream is cut by closing it, which errors the pending Next), so
	// the consumer can batch-drain frames without blocking reads.
	frames := make(chan Frame, 256)
	readErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			watchdog := time.AfterFunc(f.opts.ReadTimeout, func() { st.Close() })
			fr, err := st.Next()
			stopped := watchdog.Stop()
			if err != nil {
				if !stopped {
					err = fmt.Errorf("replica: no frame within %v (stalled stream): %w", f.opts.ReadTimeout, err)
				}
				readErr <- err
				return
			}
			f.bytesReceived.Add(uint64(frameHeaderLen + len(fr.Payload)))
			select {
			case frames <- fr:
			case <-done:
				return
			}
		}
	}()

	var (
		sawHello   bool
		hello      Hello
		snapMan    *manifest.Manifest
		snapFiles  map[string][]byte
		snapWanted map[string]bool
		batch      []wal.Record
	)
	floor := f.apply.DurableSeq()
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := f.apply.ApplyReplicated(batch); err != nil {
			return fmt.Errorf("replica: applying records: %w", err)
		}
		f.recordsApplied.Add(uint64(len(batch)))
		progress = true
		batch = batch[:0]
		return nil
	}

	handle := func(fr Frame) error {
		if !fr.Verify() {
			f.framesRejected.Add(1)
			return fmt.Errorf("replica: frame CRC mismatch (kind %d, %d bytes); abandoning stream", fr.Kind, len(fr.Payload))
		}
		f.touch()
		if !sawHello {
			if fr.Kind != FrameHello {
				return fmt.Errorf("replica: stream did not open with a hello frame (kind %d)", fr.Kind)
			}
			h, err := decodeHello(fr.Payload)
			if err != nil {
				f.framesRejected.Add(1)
				return err
			}
			if h.GridSize != f.apply.GridSize() {
				return errFatal{fmt.Errorf("replica: leader grid size %d != follower grid size %d; estimates can never converge — refusing to follow",
					h.GridSize, f.apply.GridSize())}
			}
			hello, sawHello = h, true
			f.leaderSeq.Store(h.DurableSeq)
			f.leaderVersion.Store(h.Version)
			return nil
		}
		switch fr.Kind {
		case FrameManifest:
			if !hello.Snapshot || snapMan != nil {
				return fmt.Errorf("replica: unexpected manifest frame")
			}
			man, err := manifest.Decode(fr.Payload)
			if err != nil {
				f.framesRejected.Add(1)
				return fmt.Errorf("replica: snapshot manifest: %w", err)
			}
			snapMan = man
			snapFiles = make(map[string][]byte, len(man.Shards))
			snapWanted = make(map[string]bool, len(man.Shards))
			for _, sh := range man.Shards {
				snapWanted[sh.File] = true
			}
			return nil
		case FrameShardFile:
			if snapMan == nil {
				return fmt.Errorf("replica: shard-file frame outside a snapshot")
			}
			name, data, err := decodeShardFile(fr.Payload)
			if err != nil {
				f.framesRejected.Add(1)
				return err
			}
			if !snapWanted[name] {
				return fmt.Errorf("replica: snapshot shipped %q, which the manifest does not reference", name)
			}
			snapFiles[name] = data
			return nil
		case FrameSnapshotEnd:
			if snapMan == nil {
				return fmt.Errorf("replica: snapshot end without a manifest")
			}
			if err := f.apply.ApplySnapshot(snapMan, snapFiles); err != nil {
				return fmt.Errorf("replica: installing snapshot: %w", err)
			}
			f.snapsApplied.Add(1)
			progress = true
			floor = f.apply.DurableSeq()
			snapMan, snapFiles, snapWanted = nil, nil, nil
			return nil
		case FrameRecord:
			rec, err := wal.DecodeRecord(fr.Payload)
			if err != nil {
				f.framesRejected.Add(1)
				return fmt.Errorf("replica: shipped record is corrupt: %w", err)
			}
			if rec.Seq <= floor {
				return nil // duplicate after a re-plan; already durable here
			}
			if rec.Seq > f.leaderSeq.Load() {
				f.leaderSeq.Store(rec.Seq)
			}
			// Docs alias the frame payload, which this stream owns and
			// never reuses — safe to hold until the batch flushes.
			batch = append(batch, rec)
			floor = rec.Seq
			return nil
		case FrameHeartbeat:
			seq, version, err := decodeHeartbeat(fr.Payload)
			if err != nil {
				f.framesRejected.Add(1)
				return err
			}
			f.heartbeats.Add(1)
			if seq > f.leaderSeq.Load() {
				f.leaderSeq.Store(seq)
			}
			f.leaderVersion.Store(version)
			return nil
		case FrameEnd:
			return errOrderlyEnd
		default:
			return fmt.Errorf("replica: unknown frame kind %d", fr.Kind)
		}
	}

	for {
		select {
		case <-ctx.Done():
			return progress, flush()
		case err := <-readErr:
			if ferr := flush(); ferr != nil {
				return progress, ferr
			}
			if err == io.EOF {
				err = fmt.Errorf("replica: stream ended without an end frame")
			}
			return progress, err
		case fr := <-frames:
			err := handle(fr)
			// Batch-drain: pull whatever frames already arrived so one
			// follower fsync covers them, flushing before any non-record
			// control frame is acted on (order must be preserved).
		drain:
			for err == nil && fr.Kind == FrameRecord && len(batch) < f.opts.ApplyBatch {
				select {
				case fr = <-frames:
					if fr.Kind != FrameRecord {
						if err = flush(); err == nil {
							err = handle(fr)
						}
						break drain
					}
					err = handle(fr)
				default:
					break drain
				}
			}
			if err == nil {
				err = flush()
			}
			if err == errOrderlyEnd {
				return progress, flush()
			}
			if err != nil {
				return progress, err
			}
		}
	}
}

// errOrderlyEnd signals a leader-initiated End frame (not a failure).
var errOrderlyEnd = errors.New("replica: orderly end of stream")

// Status is the follower's externally visible state.
type Status struct {
	Upstream         string
	Connected        bool
	LeaderSeq        uint64
	AppliedSeq       uint64
	LeaderVersion    uint64
	ServedVersion    uint64
	LagSeq           uint64
	LagSeconds       float64
	LastContact      time.Time // zero when the leader was never reached
	Stale            bool
	StalenessBudget  time.Duration
	Reconnects       uint64
	StreamErrors     uint64
	FramesRejected   uint64
	RecordsApplied   uint64
	SnapshotsApplied uint64
	Heartbeats       uint64
	BytesReceived    uint64
	LastError        string
	FatalError       string
}

// Status snapshots the follower's state.
func (f *Follower) Status() Status {
	s := Status{
		Upstream:         f.opts.Upstream,
		Connected:        f.connected.Load(),
		LeaderSeq:        f.leaderSeq.Load(),
		AppliedSeq:       f.apply.DurableSeq(),
		LeaderVersion:    f.leaderVersion.Load(),
		ServedVersion:    f.apply.ServingVersion(),
		StalenessBudget:  f.opts.StalenessBudget,
		Reconnects:       f.reconnects.Load(),
		StreamErrors:     f.streamErrors.Load(),
		FramesRejected:   f.framesRejected.Load(),
		RecordsApplied:   f.recordsApplied.Load(),
		SnapshotsApplied: f.snapsApplied.Load(),
		Heartbeats:       f.heartbeats.Load(),
		BytesReceived:    f.bytesReceived.Load(),
	}
	if s.LeaderSeq > s.AppliedSeq {
		s.LagSeq = s.LeaderSeq - s.AppliedSeq
	}
	var since time.Time
	if nano := f.lastContact.Load(); nano > 0 {
		s.LastContact = time.Unix(0, nano)
		since = s.LastContact
	} else {
		since = f.startedAt
	}
	if !since.IsZero() {
		s.LagSeconds = time.Since(since).Seconds()
	}
	if f.opts.StalenessBudget > 0 && !since.IsZero() {
		s.Stale = time.Since(since) > f.opts.StalenessBudget
	}
	f.errMu.Lock()
	s.LastError, s.FatalError = f.lastErr, f.fatalErr
	f.errMu.Unlock()
	return s
}

// Collect exports the follower-side replication families.
func (f *Follower) Collect(e *metrics.Expo) {
	s := f.Status()
	e.Gauge("xqest_replica_leader_seq", "Leader's durable WAL sequence, as last reported to the follower.", float64(s.LeaderSeq))
	e.Gauge("xqest_replica_applied_seq", "Newest leader WAL sequence the follower has durably applied.", float64(s.AppliedSeq))
	e.Gauge("xqest_replica_lag_seq", "WAL sequences the follower is behind the leader.", float64(s.LagSeq))
	e.Gauge("xqest_replica_lag_seconds", "Seconds since the follower last heard from the leader.", s.LagSeconds)
	boolGauge := func(name, help string, v bool) {
		val := 0.0
		if v {
			val = 1
		}
		e.Gauge(name, help, val)
	}
	boolGauge("xqest_replica_connected", "1 while a replication stream to the leader is open.", s.Connected)
	boolGauge("xqest_replica_stale", "1 when the leader has been silent past the staleness budget.", s.Stale)
	e.Counter("xqest_replica_reconnects_total", "Replication streams successfully opened (first connect included).", float64(s.Reconnects))
	e.Counter("xqest_replica_stream_errors_total", "Replication streams that failed and triggered backoff.", float64(s.StreamErrors))
	e.Counter("xqest_replica_frames_rejected_total", "Frames refused on CRC or decode failure.", float64(s.FramesRejected))
	e.Counter("xqest_replica_records_applied_total", "Shipped WAL records durably applied.", float64(s.RecordsApplied))
	e.Counter("xqest_replica_snapshots_applied_total", "Leader snapshots installed.", float64(s.SnapshotsApplied))
	e.Counter("xqest_replica_heartbeats_total", "Heartbeat frames received.", float64(s.Heartbeats))
	e.Counter("xqest_replica_bytes_received_total", "Frame bytes received from the leader.", float64(s.BytesReceived))
}
