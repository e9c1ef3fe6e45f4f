package wal

import (
	"strings"
	"testing"
	"time"

	"xmlest/internal/fsio"
)

// TestWriteFailureSealsLog: a failed frame write poisons the log for
// good — later appends are refused even though the disk "recovered".
func TestWriteFailureSealsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	l, err := Open(dir, Options{Mode: ModeAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, docs("<a/>")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	ffs.SetFaults(fsio.Faults{FailOp: ffs.OpCount() + 1}) // next op: the frame write
	if _, err := l.Append(2, docs("<b/>")); err == nil {
		t.Fatal("append with failing write: ack must be an error")
	}
	ffs.ClearFaults()
	_, err = l.Append(3, docs("<c/>"))
	if err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("append after I/O failure: got %v, want sealed error", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() must report the seal")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close of a sealed log must error")
	}
}

// TestFsyncFailureNeverAcks: in ModeAlways a failed fsync must fail the
// append (the ack promise is durability) and seal the log.
func TestFsyncFailureNeverAcks(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	l, err := Open(dir, Options{Mode: ModeAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ffs.SetFaults(fsio.Faults{SyncFailAfter: 1}) // every fsync from here on fails
	if _, err := l.Append(1, docs("<a/>")); err == nil {
		t.Fatal("append whose fsync failed must not ack")
	}
	if l.DurableSeq() != 0 {
		t.Fatalf("durable seq %d after failed fsync, want 0", l.DurableSeq())
	}
	ffs.ClearFaults()
	if _, err := l.Append(2, docs("<b/>")); err == nil {
		t.Fatal("log must stay sealed after an fsync failure")
	}
}

// TestBackgroundFlusherSealsLog is the regression test for the
// swallowed-flusher-error bug: in ModeInterval the fsync happens on a
// background goroutine, and its failure must not be silently dropped —
// the log seals and the next Append/Close fails loudly.
func TestBackgroundFlusherSealsLog(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	l, err := Open(dir, Options{Mode: ModeInterval, Interval: 2 * time.Millisecond, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, docs("<a/>")); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	// Arm a sticky fault. The only operations left are the flusher's
	// periodic fsyncs; the first one to run hits the fault and seals.
	ffs.SetFaults(fsio.Faults{FailOp: ffs.OpCount() + 1, Sticky: true})
	if _, err := l.Append(2, docs("<b/>")); err != nil {
		// The append itself may land before the flusher ticks; either
		// outcome (immediate refusal or later seal) is acceptable.
		t.Logf("append raced the flusher seal: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background flusher fsync failure was swallowed: log never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := l.Append(3, docs("<c/>")); err == nil {
		t.Fatal("append after flusher seal must fail")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after flusher seal must error")
	}
}

// TestTruncateFailureIsRetryable: a failed covered-segment remove does
// NOT seal the log (replay skips covered records either way), keeps the
// segment list intact, and a later Truncate finishes the job.
func TestTruncateFailureIsRetryable(t *testing.T) {
	// Control run: record where the first remove lands in the op log.
	workload := func(ffs *fsio.FaultFS, dir string) (*Log, error) {
		l, err := Open(dir, Options{Mode: ModeAlways, SegmentBytes: 1, FS: ffs})
		if err != nil {
			return nil, err
		}
		for i := uint64(1); i <= 3; i++ {
			if _, err := l.Append(i, docs("<a/>")); err != nil {
				return nil, err
			}
		}
		return l, nil
	}
	control := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	cl, err := workload(control, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Truncate(3); err != nil {
		t.Fatalf("control truncate: %v", err)
	}
	cl.Close()
	removes := control.OpsByKind(fsio.OpRemove)
	if len(removes) == 0 {
		t.Fatal("control run performed no removes; test workload is wrong")
	}

	// Fault run: fail exactly that remove.
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{FailOp: removes[0].Index})
	l, err := workload(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Truncate(3); err == nil {
		t.Fatal("truncate with failing remove: want error")
	}
	if l.Err() != nil {
		t.Fatalf("truncate failure must not seal the log: %v", l.Err())
	}
	if _, err := l.Append(4, docs("<d/>")); err != nil {
		t.Fatalf("append after failed truncate: %v", err)
	}
	if err := l.Truncate(3); err != nil {
		t.Fatalf("retried truncate: %v", err)
	}
	for _, seg := range l.Segments() {
		if seg.LastSeq <= 3 && seg.Records > 0 {
			t.Fatalf("covered segment survived retried truncate: %+v", seg)
		}
	}
}

// TestAppendGroupWriteFailureSealsAndRollsBack: a failed group write
// refuses the whole group, truncates the partial frames, and seals.
func TestAppendGroupWriteFailureSealsAndRollsBack(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaultFS(fsio.OS, fsio.Faults{})
	l, err := Open(dir, Options{Mode: ModeAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, docs("<a/>")); err != nil {
		t.Fatal(err)
	}
	ffs.SetFaults(fsio.Faults{FailOp: ffs.OpCount() + 1}) // next op: the group write
	_, err = l.AppendGroup([]GroupRecord{
		{Version: 2, Docs: docs("<b/>")},
		{Version: 3, Docs: docs("<c/>")},
	})
	if err == nil {
		t.Fatal("group whose write failed must be refused")
	}
	ffs.ClearFaults()
	if _, err := l.Append(4, docs("<d/>")); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("append after group write failure: got %v, want sealed", err)
	}
	if l.LastSeq() != 1 || l.DurableSeq() != 1 {
		t.Fatalf("failed group moved watermarks: last=%d durable=%d", l.LastSeq(), l.DurableSeq())
	}
}
