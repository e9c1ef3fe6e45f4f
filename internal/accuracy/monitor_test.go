package accuracy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlest/internal/metrics"
)

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	if m.Sampled() {
		t.Error("nil monitor sampled")
	}
	m.Submit("//a//b", 1, func(time.Time) (float64, error) { return 0, nil })
	m.Close()
}

func TestMonitorDisabledNeverSamples(t *testing.T) {
	m := NewMonitor(MonitorConfig{SampleEvery: 0})
	defer m.Close()
	for i := 0; i < 100; i++ {
		if m.Sampled() {
			t.Fatal("SampleEvery 0 sampled")
		}
	}
}

func TestMonitorSamplingStride(t *testing.T) {
	m := NewMonitor(MonitorConfig{SampleEvery: 4})
	defer m.Close()
	hits := 0
	for i := 0; i < 100; i++ {
		if m.Sampled() {
			hits++
		}
	}
	if hits != 25 {
		t.Errorf("1-in-4 over 100 = %d hits, want 25", hits)
	}
}

// counter reads the monitor's xqest_accuracy_<name>_total off a gather.
func counter(m *Monitor, name string) float64 {
	v, _ := metrics.Gather(m).Value("xqest_accuracy_" + name + "_total")
	return v
}

// waitCounter polls until the named counter reaches want or the
// deadline passes.
func waitCounter(t *testing.T, m *Monitor, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if counter(m, name) >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s stuck at %v, want %v", name, counter(m, name), want)
}

func TestMonitorClassifiesOutcomes(t *testing.T) {
	ps := metrics.NewPatternStats(0)
	ps.Observe("//a//b", 12, time.Microsecond) // track the pattern first
	m := NewMonitor(MonitorConfig{SampleEvery: 1, Patterns: ps})
	defer m.Close()

	m.Submit("//a//b", 12, func(time.Time) (float64, error) { return 10, nil })
	m.Submit("//a//b", 5, func(time.Time) (float64, error) { return 0, fmt.Errorf("budget: %w", context.DeadlineExceeded) })
	m.Submit("//a//b", 5, func(time.Time) (float64, error) { return 0, fmt.Errorf("snap: %w", ErrUnverifiable) })
	m.Submit("//a//b", 5, func(time.Time) (float64, error) { return 0, errors.New("boom") })

	for _, name := range []string{"verified", "deadline", "unverifiable", "failed"} {
		waitCounter(t, m, name, 1)
	}

	fams := metrics.Gather(m)
	if n := counter(m, "sampled"); n != 4 {
		t.Errorf("sampled = %v, want 4", n)
	}
	if n, _ := fams.Value("xqest_accuracy_qerror_count"); n != 1 {
		t.Fatalf("qerror count = %v, want 1", n)
	}
	want := QError(12, 10)
	if sum, _ := fams.Value("xqest_accuracy_qerror_sum"); sum != want {
		t.Errorf("qerror sum of the one verified estimate = %v, want %v", sum, want)
	}
	// |12-10|/10 = 0.2
	if mean := counter(m, "relative_error") / counter(m, "verified"); mean < 0.19 || mean > 0.21 {
		t.Errorf("mean rel err = %v, want ~0.2", mean)
	}
	// The per-pattern digest saw the verified q-error.
	if n, ok := metrics.Gather(ps).Value("xqest_pattern_qerror_count", "pattern", "//a//b"); !ok || n != 1 {
		t.Errorf("pattern digest q-error count = %v, %v, want 1", n, ok)
	}
}

func TestSampledUnsampledPathAllocs(t *testing.T) {
	// The unsampled hot path is one atomic increment: no allocation,
	// for a nil monitor or a live one.
	var nilM *Monitor
	if n := testing.AllocsPerRun(1000, func() { nilM.Sampled() }); n != 0 {
		t.Errorf("nil Sampled allocs = %v, want 0", n)
	}
	m := NewMonitor(MonitorConfig{SampleEvery: 1 << 30})
	defer m.Close()
	if n := testing.AllocsPerRun(1000, func() { m.Sampled() }); n != 0 {
		t.Errorf("unsampled Sampled allocs = %v, want 0", n)
	}
}

func TestMonitorDropsOnOverflow(t *testing.T) {
	block := make(chan struct{})
	m := NewMonitor(MonitorConfig{SampleEvery: 1, Workers: 1, QueueSize: 1})
	defer m.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	m.Submit("//a", 1, func(time.Time) (float64, error) {
		wg.Done()
		<-block
		return 0, nil
	})
	wg.Wait() // worker is now stuck inside the first job
	m.Submit("//a", 1, func(time.Time) (float64, error) { return 0, nil })
	// The queue (size 1) holds the second job; the third must drop.
	m.Submit("//a", 1, func(time.Time) (float64, error) { return 0, nil })
	if d := counter(m, "dropped"); d != 1 {
		t.Errorf("dropped = %v, want 1", d)
	}
	close(block)
}

func TestMonitorSubmitAfterCloseDrops(t *testing.T) {
	m := NewMonitor(MonitorConfig{SampleEvery: 1})
	m.Close()
	m.Close() // idempotent
	m.Submit("//a", 1, func(time.Time) (float64, error) { return 1, nil })
	if d := counter(m, "dropped"); d != 1 {
		t.Errorf("dropped after close = %v, want 1", d)
	}
}

func TestMonitorCollect(t *testing.T) {
	m := NewMonitor(MonitorConfig{SampleEvery: 1})
	defer m.Close()
	m.Submit("//a", 3, func(time.Time) (float64, error) { return 3, nil })
	waitCounter(t, m, "verified", 1)

	var buf bytes.Buffer
	if err := metrics.Gather(m).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE xqest_accuracy_qerror histogram",
		"xqest_accuracy_qerror_sum",
		"xqest_accuracy_qerror_count 1",
		"xqest_accuracy_sampled_total 1",
		"xqest_accuracy_verified_total 1",
		"xqest_accuracy_dropped_total 0",
		"xqest_accuracy_deadline_total 0",
		"xqest_accuracy_unverifiable_total 0",
		"xqest_accuracy_failed_total 0",
		"xqest_accuracy_relative_error_total 0",
		"xqest_accuracy_sample_every 1",
		"xqest_accuracy_budget_seconds 0.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
