package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xmlest/internal/fsio"
	"xmlest/internal/wal"
)

// The append pipeline's group-commit rules, each pinned
// deterministically: built shards wait on the ready list while another
// goroutine holds the write lock and then commit together, the ingest
// byte cap splits a merge, Close resolves every accepted append, and
// under the interval policy the log's own flusher makes acks durable.

// waitUntil polls cond until it holds, failing the test after a
// generous deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (d *DurableStore) readyLen() int {
	d.readyMu.Lock()
	defer d.readyMu.Unlock()
	return len(d.ready)
}

type appendResult struct {
	sh  *Shard
	seq uint64
	err error
}

// appendAsync runs AppendDocs on its own goroutine.
func appendAsync(d *DurableStore, docs [][]byte) <-chan appendResult {
	out := make(chan appendResult, 1)
	go func() {
		sh, seq, err := d.AppendDocs(docs)
		out <- appendResult{sh, seq, err}
	}()
	return out
}

// holdTwoReady takes the store's write lock and appends two batches one
// after the other, so each is built as its own group and left on the
// ready list behind the held lock. The caller must unlock writeMu.
func holdTwoReady(t *testing.T, d *DurableStore) (a, b <-chan appendResult) {
	t.Helper()
	d.store.writeMu.Lock()
	a = appendAsync(d, batchDocs(0))
	waitUntil(t, "the first append is built", func() bool { return d.readyLen() == 1 })
	b = appendAsync(d, batchDocs(1))
	waitUntil(t, "the second append is built", func() bool { return d.readyLen() == 2 })
	return a, b
}

// TestReadyListCommitsAsOneGroup: two appends that finish building
// while the write lock is held elsewhere land in ONE AppendGroup — one
// fsync, consecutive WAL sequences and consecutive versions.
func TestReadyListCommitsAsOneGroup(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), bootstrapFig1, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fsyncs := d.log.Fsyncs()
	a, b := holdTwoReady(t, d)
	if got := d.log.Fsyncs(); got != fsyncs {
		t.Fatalf("%d fsyncs while the write lock was held", got-fsyncs)
	}
	d.store.writeMu.Unlock()
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("appends refused: %v, %v", ra.err, rb.err)
	}
	if got := d.log.Fsyncs() - fsyncs; got != 1 {
		t.Fatalf("two ready appends cost %d fsyncs, want 1", got)
	}
	if ra.seq+1 != rb.seq {
		t.Fatalf("seqs %d and %d, want consecutive", ra.seq, rb.seq)
	}
	if ra.sh.installedAt+1 != rb.sh.installedAt {
		t.Fatalf("versions %d and %d, want consecutive", ra.sh.installedAt, rb.sh.installedAt)
	}
	gc := d.Stats().GroupCommit
	if gc.Groups != 1 || gc.Batches != 2 {
		t.Fatalf("group commit stats %+v, want one group of 2 batches", gc)
	}
}

// TestFailedGroupFsyncRefusesWholeGroup: when the one fsync of a
// two-append group fails, both appends are refused, neither installs,
// the log seals and its durable watermark does not move, and a later
// append is refused by the seal. A partial-group ack is forbidden.
func TestFailedGroupFsyncRefusesWholeGroup(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	cfg := durableCfg()
	cfg.FS = ffs
	d, err := OpenDurable(t.TempDir(), bootstrapFig1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	version, durable := d.store.Current().version, d.DurableSeq()
	a, b := holdTwoReady(t, d)
	ffs.SetFaults(fsio.Faults{SyncFailAfter: 1})
	d.store.writeMu.Unlock()
	ra, rb := <-a, <-b
	if ra.err == nil || rb.err == nil {
		t.Fatalf("group with a failed fsync acked a batch: errs %v, %v", ra.err, rb.err)
	}
	if d.log.Err() == nil {
		t.Fatal("failed group fsync must seal the log")
	}
	if got := d.DurableSeq(); got != durable {
		t.Fatalf("durable seq moved %d -> %d on a refused group", durable, got)
	}
	if got := d.store.Current().version; got != version {
		t.Fatalf("version moved %d -> %d on a refused group", version, got)
	}
	gc := d.Stats().GroupCommit
	if gc.Groups != 1 || gc.Batches != 2 {
		t.Fatalf("group commit stats %+v, want one group of 2 batches", gc)
	}
	if _, _, err := d.AppendDocs(batchDocs(2)); err == nil {
		t.Fatal("append after the log sealed was acked")
	}
}

// TestIngestByteCapSplitsMerge: the coalescer's greedy drain stops once
// a group's documents reach maxIngestBytes, so what would be one merged
// build becomes two.
func TestIngestByteCapSplitsMerge(t *testing.T) {
	d := &DurableStore{ingestQ: make(chan *ingestReq, 4)}
	half := [][]byte{make([]byte, maxIngestBytes/2)}
	first := &ingestReq{docs: half}
	for i := 0; i < 2; i++ {
		d.ingestQ <- &ingestReq{docs: half}
	}
	if g := d.formIngestGroup(first); len(g) != 2 {
		t.Fatalf("first group took %d batches of %d bytes, want 2 (cap %d)", len(g), len(half[0]), maxIngestBytes)
	}
	if n := len(d.ingestQ); n != 1 {
		t.Fatalf("%d batches left queued, want 1", n)
	}
	if g := d.formIngestGroup(<-d.ingestQ); len(g) != 1 {
		t.Fatalf("second group took %d batches, want 1", len(g))
	}
}

// TestCloseResolvesAcceptedAppends: Close, called while appends are
// built and queued behind a held write lock, commits and acknowledges
// every one of them; an append after Close is refused, and recovery
// finds every acknowledged document.
func TestCloseResolvesAcceptedAppends(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, nil, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	a, b := holdTwoReady(t, d)
	pending := []<-chan appendResult{a, b}
	for i := 2; i < 6; i++ {
		pending = append(pending, appendAsync(d, batchDocs(i)))
	}
	// Both slots are held, so the coalescer holds one batch and the
	// other three wait in its queue.
	waitUntil(t, "the later appends are queued", func() bool { return len(d.ingestQ) == 3 })
	closed := make(chan error, 1)
	go func() { closed <- d.Close() }()
	waitUntil(t, "Close stops accepting appends", func() bool {
		d.ingestMu.RLock()
		defer d.ingestMu.RUnlock()
		return d.ingestClosed
	})
	if _, _, err := d.AppendDocs(batchDocs(9)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after Close: %v, want closed", err)
	}
	d.store.writeMu.Unlock()
	for i, p := range pending {
		if r := <-p; r.err != nil {
			t.Fatalf("accepted append %d refused by Close: %v", i, r.err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, nil, durableCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got, want := d2.Store().Current().TotalDocs(), 2*len(pending); got != want {
		t.Fatalf("recovered %d docs, want %d", got, want)
	}
}

// TestIntervalFsyncMakesAcksDurable: under the interval policy nothing
// is fsynced at ack time, and the log's own background flusher advances
// the durable watermark past every acked append.
func TestIntervalFsyncMakesAcksDurable(t *testing.T) {
	cfg := durableCfg()
	cfg.WAL = wal.Options{Mode: wal.ModeInterval, Interval: 2 * time.Millisecond}
	d, err := OpenDurable(t.TempDir(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var last uint64
	for i := 0; i < 3; i++ {
		_, seq, err := d.AppendDocs(batchDocs(i))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	waitUntil(t, fmt.Sprintf("durable seq reaches %d", last), func() bool { return d.DurableSeq() >= last })
	if d.log.Fsyncs() == 0 {
		t.Fatal("durable seq advanced without an fsync")
	}
}
