package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func docs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// collect replays the whole directory into memory, copying doc bytes
// (replay slices alias the segment buffer).
func collect(t *testing.T, dir string, after uint64) []Record {
	t.Helper()
	var recs []Record
	err := ScanDir(dir, after, func(rec Record) error {
		cp := Record{Seq: rec.Seq, Version: rec.Version}
		for _, d := range rec.Docs {
			cp.Docs = append(cp.Docs, bytes.Clone(d))
		}
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: ModeAlways})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][][]byte{
		docs("<a/>"),
		docs("<b>x</b>", "<c/>"),
		docs("<d>long text content</d>"),
	}
	for i, b := range batches {
		seq, err := l.Append(uint64(i+10), b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
		if l.DurableSeq() != seq {
			t.Fatalf("ModeAlways: durable seq %d after appending %d", l.DurableSeq(), seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 0)
	if len(recs) != len(batches) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(batches))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Version != uint64(i+10) {
			t.Fatalf("record %d: seq %d version %d", i, rec.Seq, rec.Version)
		}
		if len(rec.Docs) != len(batches[i]) {
			t.Fatalf("record %d: %d docs, want %d", i, len(rec.Docs), len(batches[i]))
		}
		for j, d := range rec.Docs {
			if !bytes.Equal(d, batches[i][j]) {
				t.Fatalf("record %d doc %d: %q != %q", i, j, d, batches[i][j])
			}
		}
	}
	// Replay after a watermark skips covered records.
	if tail := collect(t, dir, 2); len(tail) != 1 || tail[0].Seq != 3 {
		t.Fatalf("replay after 2: %+v", tail)
	}
}

func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, docs("<a/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, docs("<b/>")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 2 {
		t.Fatalf("reopened last seq %d, want 2", l2.LastSeq())
	}
	seq, err := l2.Append(3, docs("<c/>"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("resumed seq %d, want 3", seq)
	}
	if got := collect(t, dir, 0); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(uint64(i+1), docs(fmt.Sprintf("<d%d/>", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, err := List(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("List: %v, %d segments", err, len(segs))
	}
	// Simulate a crash mid-append: write a partial frame at the tail.
	f, err := os.OpenFile(segs[0].Path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	segs, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].TornBytes != 6 || segs[0].Records != 3 {
		t.Fatalf("torn=%d records=%d, want 6 and 3", segs[0].TornBytes, segs[0].Records)
	}

	// Reopen truncates the torn tail and appends cleanly after it.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 3 {
		t.Fatalf("last seq %d, want 3", l2.LastSeq())
	}
	if _, err := l2.Append(4, docs("<after/>")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs := collect(t, dir, 0)
	if len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("replay after torn-tail repair: %d records", len(recs))
	}
}

func TestCorruptTailSkippedAtLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(uint64(i+1), docs("<x/>")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := List(dir)
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: its CRC fails, replay
	// keeps the first record.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 0)
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("corrupt tail: replayed %d records", len(recs))
	}
}

func TestGarbageSegmentRecreatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(1, docs("<a/>")); err != nil || seq != 1 {
		t.Fatalf("append after garbage: seq %d err %v", seq, err)
	}
	l.Close()
	if recs := collect(t, dir, 0); len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
}

func TestSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force a roll every couple of records.
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(uint64(i+1), docs("<doc>roll me over</doc>")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("expected several segments, got %d", n)
	}
	if got := collect(t, dir, 0); len(got) != 10 {
		t.Fatalf("replayed %d records across segments, want 10", len(got))
	}

	// Truncate through seq 6: only segments wholly <= 6 disappear.
	if err := l.Truncate(6); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, dir, 0)
	if len(recs) == 0 || recs[len(recs)-1].Seq != 10 {
		t.Fatalf("tail lost by truncation: %d records", len(recs))
	}
	// Every record > 6 must survive.
	keep := 0
	for _, rec := range recs {
		if rec.Seq > 6 {
			keep++
		}
	}
	if keep != 4 {
		t.Fatalf("records > 6 after truncate: %d, want 4", keep)
	}

	// Truncating through the last seq rolls the active segment and
	// leaves exactly one fresh, empty segment.
	if err := l.Truncate(l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if len(segs) != 1 || segs[0].LastSeq != 0 {
		t.Fatalf("full truncate left %d segments (last=%d)", len(segs), segs[0].LastSeq)
	}
	// Sequence numbering continues past the truncation.
	seq, err := l.Append(11, docs("<post/>"))
	if err != nil || seq != 11 {
		t.Fatalf("append after full truncate: seq %d err %v", seq, err)
	}
	l.Close()
	if recs := collect(t, dir, 0); len(recs) != 1 || recs[0].Seq != 11 {
		t.Fatalf("post-truncate replay: %+v", recs)
	}
}

func TestOpenRefusesCorruptInteriorSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(uint64(i+1), docs("<doc>roll me over</doc>")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := List(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("List: %v, %d segments", err, len(segs))
	}
	// Corrupt the FIRST (interior) segment: replay would silently skip
	// its tail while later segments still replay, so Open must refuse.
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 64}); err == nil {
		t.Fatal("corrupt interior segment accepted")
	}
}

func TestSetMinSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetMinSeq(41)
	if l.LastSeq() != 41 || l.DurableSeq() != 41 {
		t.Fatalf("floors not applied: last %d durable %d", l.LastSeq(), l.DurableSeq())
	}
	seq, err := l.Append(1, docs("<a/>"))
	if err != nil || seq != 42 {
		t.Fatalf("append after SetMinSeq(41): seq %d err %v", seq, err)
	}
	// A floor below the current state is a no-op.
	l.SetMinSeq(3)
	if seq, err := l.Append(1, docs("<b/>")); err != nil || seq != 43 {
		t.Fatalf("append after lowering no-op floor: seq %d err %v", seq, err)
	}
}

func TestIntervalModeAdvancesDurableSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: ModeInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := l.Append(1, docs("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for l.DurableSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("durable seq stuck at %d, want %d", l.DurableSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOffModeSyncsOnClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: ModeOff})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(1, docs("<a/>"))
	if err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != 0 {
		t.Fatalf("ModeOff advanced durable seq to %d before close", l.DurableSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != seq {
		t.Fatalf("close did not sync: durable %d, want %d", l.DurableSeq(), seq)
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	l.Close()
	if _, err := l.Append(1, docs("<a/>")); err == nil {
		t.Fatal("append on closed log accepted")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"always", ModeAlways}, {"interval", ModeInterval}, {"off", ModeOff}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
		if m.String() != tc.in {
			t.Fatalf("Mode.String() = %q, want %q", m.String(), tc.in)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestAppendGroupRoundTrip: one AppendGroup call lands n records with
// contiguous sequences, one fsync, and exact replay.
func TestAppendGroupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: ModeAlways})
	if err != nil {
		t.Fatal(err)
	}
	before := l.Fsyncs()
	recs := []GroupRecord{
		{Version: 10, Docs: docs("<a/>")},
		{Version: 11, Docs: docs("<b>x</b>", "<c/>")},
		{Version: 12, Docs: docs("<d/>")},
	}
	first, err := l.AppendGroup(recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || l.LastSeq() != 3 || l.DurableSeq() != 3 {
		t.Fatalf("first=%d last=%d durable=%d, want 1/3/3", first, l.LastSeq(), l.DurableSeq())
	}
	if got := l.Fsyncs() - before; got != 1 {
		t.Fatalf("group of 3 cost %d fsyncs, want 1", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := collect(t, dir, 0)
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records, want 3", len(replayed))
	}
	for i, rec := range replayed {
		if rec.Seq != uint64(i+1) || rec.Version != uint64(i+10) {
			t.Fatalf("record %d: seq %d version %d", i, rec.Seq, rec.Version)
		}
		for j, d := range rec.Docs {
			if !bytes.Equal(d, recs[i].Docs[j]) {
				t.Fatalf("record %d doc %d: %q", i, j, d)
			}
		}
	}
}
