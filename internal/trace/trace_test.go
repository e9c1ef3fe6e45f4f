package trace

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"

	"xmlest/internal/metrics"
)

func TestSamplingStride(t *testing.T) {
	tr := New(Config{SampleEvery: 2})
	var sampled int
	for i := 0; i < 10; i++ {
		if tc := tr.Start(); tc != nil {
			sampled++
			tr.Finish(tc, "test", "id", time.Microsecond, 200)
		}
	}
	if sampled != 5 {
		t.Errorf("SampleEvery=2 sampled %d of 10, want 5", sampled)
	}
	if got := tr.SampleEvery(); got != 2 {
		t.Errorf("SampleEvery() = %d, want 2", got)
	}

	off := New(Config{SampleEvery: 0})
	for i := 0; i < 10; i++ {
		if off.Start() != nil {
			t.Fatal("SampleEvery=0 returned a non-nil trace")
		}
	}
	if got := off.SampleEvery(); got != 0 {
		t.Errorf("disabled SampleEvery() = %d, want 0", got)
	}
}

func TestNilSafety(t *testing.T) {
	// A nil Tracer and a nil Trace must both be inert.
	var tr *Tracer
	if tr.Start() != nil {
		t.Fatal("nil tracer returned a trace")
	}
	tr.Finish(nil, "e", "id", time.Second, 200)
	if tr.SampleEvery() != 0 {
		t.Error("nil tracer SampleEvery != 0")
	}

	var tc *Trace
	tc.Begin()
	tc.Step(StageDecode)
	tc.Add(StageEncode, time.Millisecond)
	if tc.breakdown() != "" {
		t.Error("nil trace breakdown not empty")
	}

	var r *Recorder
	r.Observe(StageDecode, time.Millisecond)
}

// exposition renders the recorder's family as a scrape would.
func exposition(t *testing.T, r *Recorder) string {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Register(r)
	var buf bytes.Buffer
	if err := reg.Gather().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRecorderObserveAndCollect(t *testing.T) {
	r := NewRecorder("test_stage_seconds", "help", StageDecode, StageEncode)
	r.Observe(StageDecode, time.Millisecond)
	r.Observe(StageDecode, 2*time.Millisecond)
	r.Observe(StageEncode, time.Microsecond)
	// Undeclared stage: ignored, no panic.
	r.Observe(StageParse, time.Second)

	text := exposition(t, r)
	for _, want := range []string{
		`test_stage_seconds_count{stage="decode"} 2`,
		`test_stage_seconds_count{stage="encode"} 1`,
		"# TYPE test_stage_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `stage="parse"`) {
		t.Error("undeclared stage leaked into exposition")
	}
}

func TestFinishFeedsRecorder(t *testing.T) {
	r := NewRecorder("f_stage_seconds", "help", StageDecode, StageEncode)
	tr := New(Config{SampleEvery: 1, Recorder: r})
	tc := tr.Start()
	if tc == nil {
		t.Fatal("SampleEvery=1 returned nil")
	}
	tc.Begin()
	tc.Add(StageDecode, 3*time.Millisecond)
	tc.Add(StageEncode, time.Millisecond)
	tr.Finish(tc, "estimate", "rid", 5*time.Millisecond, 200)
	text := exposition(t, r)
	for _, want := range []string{
		`f_stage_seconds_count{stage="decode"} 1`,
		`f_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := New(Config{SampleEvery: 1, SlowThreshold: time.Millisecond, Logger: logger})

	// Fast request: no log line.
	tr.Finish(tr.Start(), "estimate", "fast-1", 10*time.Microsecond, 200)
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %s", buf.String())
	}

	// Slow sampled request: logged with breakdown and request ID.
	tc := tr.Start()
	tc.Begin()
	tc.Add(StageDecode, 2*time.Millisecond)
	tr.Finish(tc, "estimate", "slow-1", 5*time.Millisecond, 200)
	line := buf.String()
	for _, want := range []string{"slow request", "slow-1", "endpoint=estimate", "stages=", "decode="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %q in %q", want, line)
		}
	}

	// Slow unsampled request (nil trace): still logged, no stage
	// breakdown.
	buf.Reset()
	tr.Finish(nil, "append", "slow-2", 9*time.Millisecond, 200)
	line = buf.String()
	if !strings.Contains(line, "slow-2") {
		t.Errorf("unsampled slow request not logged: %q", line)
	}
	if strings.Contains(line, "stages=") {
		t.Errorf("unsampled slow log has a stage breakdown: %q", line)
	}
}

func TestSlowLogRateLimit(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := New(Config{SampleEvery: 1, SlowThreshold: time.Microsecond, Logger: logger})
	for i := 0; i < 100; i++ {
		tr.Finish(nil, "estimate", "storm", time.Second, 200)
	}
	// The token bucket may straddle a second boundary during the loop,
	// so allow up to two buckets' worth.
	if got := strings.Count(buf.String(), "slow request"); got > 2*maxSlowLogsPerSec {
		t.Errorf("rate limiter let %d lines through, want <= %d", got, 2*maxSlowLogsPerSec)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Error("empty context returned a trace")
	}
	tc := &Trace{}
	ctx := NewContext(context.Background(), tc)
	if got := FromContext(ctx); got != tc {
		t.Errorf("FromContext = %p, want %p", got, tc)
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("malformed request ID %q", id)
		}
	}
}

func TestTraceStepClock(t *testing.T) {
	tc := &Trace{}
	tc.Begin()
	time.Sleep(2 * time.Millisecond)
	tc.Step(StageDecode)
	tc.Step(StageEncode) // immediately after: near-zero
	if tc.n != 2 {
		t.Fatalf("recorded %d steps, want 2", tc.n)
	}
	if tc.durs[0] < time.Millisecond {
		t.Errorf("decode duration %v, want >= 1ms", tc.durs[0])
	}
	if tc.durs[1] > tc.durs[0] {
		t.Errorf("encode %v longer than decode %v despite immediate Step", tc.durs[1], tc.durs[0])
	}
	bd := tc.breakdown()
	if !strings.HasPrefix(bd, "decode=") || !strings.Contains(bd, " encode=") {
		t.Errorf("breakdown = %q, want decode then encode", bd)
	}
}

func TestTraceStepOverflow(t *testing.T) {
	tc := &Trace{}
	tc.Begin()
	for i := 0; i < maxSteps+4; i++ {
		tc.Add(StageDecode, time.Microsecond)
	}
	if tc.n != maxSteps {
		t.Errorf("n = %d, want capped at %d", tc.n, maxSteps)
	}
}
