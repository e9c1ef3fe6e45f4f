package shard

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"xmlest/internal/fsio"
	"xmlest/internal/pattern"
)

// The group-commit chaos workload: the same unique-tag batches as the
// serial chaos sweep, but appended by concurrent goroutines so batches
// coalesce into commit groups, with a checkpoint racing the appends.
// The acked-or-absent invariant is exactly as before — group commit
// must not weaken it — plus its sharper form: a group whose single
// write or fsync failed must refuse EVERY batch in it, so no fault
// point may produce an acked batch that recovery cannot reproduce
// bit-identically.

// runGroupChaosWorkload appends all chaos batches concurrently and
// reports which were acknowledged, in ascending batch order.
func runGroupChaosWorkload(dir string, fsys fsio.FS) (acked []int, shutdown func()) {
	d, err := OpenDurable(dir, nil, chaosCfg(fsys))
	if err != nil {
		return nil, func() {}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < chaosBatches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := d.AppendDocs(chaosDoc(i)); err == nil {
				mu.Lock()
				acked = append(acked, i)
				mu.Unlock()
			}
		}(i)
	}
	_, _ = d.Checkpoint() // races the appends; may fail under fault
	wg.Wait()
	_, _ = d.Checkpoint()
	sort.Ints(acked)
	return acked, func() { _ = d.Close() }
}

// groupChaosOps is the fixed op range the group sweeps inject into.
// Unlike the serial sweep the op schedule is not deterministic —
// concurrency reorders I/O and changes how batches group — so a
// fault-free run performs a varying number of ops (38-53 observed).
// Sweeping a constant range keeps the subtest list the same on every
// run; an index a run never reaches injects nothing, and that case
// must then ack every batch.
const groupChaosOps = 96

// groupChaosControlRun checks a fault-free concurrent run: every batch
// acked and recovered, within the swept op range.
func groupChaosControlRun(t *testing.T) {
	t.Helper()
	control := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	dir := t.TempDir()
	acked, shutdown := runGroupChaosWorkload(dir, control)
	shutdown()
	if len(acked) != chaosBatches {
		t.Fatalf("fault-free control run acked %v, want all %d batches", acked, chaosBatches)
	}
	verifyAckedOrAbsent(t, dir, acked, "group control")
	if n := control.OpCount(); n < 20 || n > groupChaosOps {
		t.Fatalf("fault-free workload performed %d ops, outside the swept range [20, %d]: resize groupChaosOps", n, groupChaosOps)
	}
}

func runGroupChaosCase(t *testing.T, faults fsio.Faults, label string) {
	t.Helper()
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, faults)
	acked, shutdown := runGroupChaosWorkload(dir, ffs)
	if ffs.OpCount() < faults.FailOp && len(acked) != chaosBatches {
		t.Errorf("%s: the fault never fired, yet only %v of %d batches were acked", label, acked, chaosBatches)
	}
	ffs.PowerCut() // crash first...
	shutdown()     // ...then release descriptors
	verifyAckedOrAbsent(t, dir, acked, label)
}

// TestGroupChaosSweepEveryOp injects a one-shot EIO at every I/O op
// index in the swept range, power-cuts, recovers, and requires
// acked-or-absent with bit-identical estimates. A partial group ack at
// any fault point would surface here as an acked batch whose estimate
// recovery cannot reproduce.
func TestGroupChaosSweepEveryOp(t *testing.T) {
	groupChaosControlRun(t)
	for op := uint64(1); op <= groupChaosOps; op++ {
		op := op
		t.Run(fmt.Sprintf("fail-op-%d", op), func(t *testing.T) {
			t.Parallel()
			runGroupChaosCase(t, fsio.Faults{FailOp: op}, fmt.Sprintf("group fail-op=%d", op))
		})
	}
}

// TestGroupChaosSweepTornAndSticky repeats the sweep with the nastier
// fault shapes: torn group writes (half the multi-record frame lands)
// and sticky disks at a spread of op indexes.
func TestGroupChaosSweepTornAndSticky(t *testing.T) {
	groupChaosControlRun(t)
	for op := uint64(1); op <= groupChaosOps; op += 3 {
		op := op
		t.Run(fmt.Sprintf("torn-op-%d", op), func(t *testing.T) {
			t.Parallel()
			runGroupChaosCase(t, fsio.Faults{FailOp: op, Torn: true},
				fmt.Sprintf("group torn-op=%d", op))
		})
		t.Run(fmt.Sprintf("sticky-op-%d", op), func(t *testing.T) {
			t.Parallel()
			runGroupChaosCase(t, fsio.Faults{FailOp: op, Sticky: true},
				fmt.Sprintf("group sticky-op=%d", op))
		})
	}
}

// TestGroupFsyncFailureRefusesEveryBatch pins no-partial-group-acks at
// the store level: with every fsync failing, concurrent appends must
// ALL be refused — whatever groups they landed in — and recovery finds
// an empty database.
func TestGroupFsyncFailureRefusesEveryBatch(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{SyncFailAfter: 1})
	acked, shutdown := runGroupChaosWorkload(dir, ffs)
	ffs.PowerCut()
	shutdown()
	if len(acked) != 0 {
		t.Fatalf("batches %v acked though no fsync ever succeeded", acked)
	}
	verifyAckedOrAbsent(t, dir, nil, "group fsync-failure")
}

// TestGroupCommitRaceStress hammers the append pipeline from concurrent
// appenders while checkpoints and compactions race it for the write
// lock, then checks the group-commit accounting: every acked batch is
// counted exactly once across the committed groups, and the recovered
// store holds every acked document. Run with -race this is the
// pipeline's data-race probe.
func TestGroupCommitRaceStress(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, nil, chaosCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	// Seed one document synchronously so the racing estimate loop's
	// predicate exists from the start.
	if _, _, err := d.AppendDocs([][]byte{[]byte("<department><stress>seed</stress></department>")}); err != nil {
		t.Fatal(err)
	}
	const appenders, perWorker = 4, 12
	var wg sync.WaitGroup
	var ackCount int64
	var ackMu sync.Mutex
	for w := 0; w < appenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				doc := [][]byte{[]byte(fmt.Sprintf("<department><stress>w%d-%d</stress></department>", w, i))}
				if _, _, err := d.AppendDocs(doc); err != nil {
					t.Errorf("append w%d-%d: %v", w, i, err)
					return
				}
				ackMu.Lock()
				ackCount++
				ackMu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() {
		defer loops.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.store.Compact(CompactionPolicy{}); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			set := d.store.Current()
			p, _ := pattern.Parse("//department//stress")
			if _, err := set.EstimateTwig(p, durableTestOpts); err != nil {
				t.Errorf("estimate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	loops.Wait()

	gc := d.Stats().GroupCommit
	total := uint64(appenders*perWorker) + 1 // + the seed document
	if gc.Batches != total {
		t.Fatalf("group-commit batches %d, want %d (every ack counted exactly once)", gc.Batches, total)
	}
	if gc.Groups == 0 || gc.Groups > gc.Batches {
		t.Fatalf("groups %d outside [1, %d]", gc.Groups, gc.Batches)
	}
	if gc.Fsyncs == 0 {
		t.Fatal("no fsyncs counted under ModeAlways")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover and account for every acked document.
	d2, err := OpenDurable(dir, nil, chaosCfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Store().Current().TotalDocs(); got != int(total) {
		t.Fatalf("recovered %d docs, want %d", got, total)
	}
}
