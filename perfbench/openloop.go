package main

import (
	"sync"
	"time"
)

// clock is the time source of the open-loop generator; tests replace it.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues operations on a fixed schedule — operation k is due
// at start + k·every — whatever the previous ones took, as independent
// users would. One goroutine sends, so an operation that overruns its
// slot delays the sends behind it; each operation is therefore timed
// from when it was due, not from when it was sent, and the generator's
// own lateness is recorded so a run that could not keep the schedule
// is visible.
type openLoop struct {
	every time.Duration
	clk   clock

	mu sync.Mutex // guards the samples, which are read while the loop runs
	// late and latency are in milliseconds, one entry per operation:
	// sent − due and done − due.
	late    []float64
	latency []float64
}

// run issues op until stop reports true (checked before each
// operation) and returns the number issued.
func (o *openLoop) run(stop func() bool, op func(k int)) int {
	start := o.clk.Now()
	k := 0
	for ; !stop(); k++ {
		due := start.Add(time.Duration(k) * o.every)
		if d := due.Sub(o.clk.Now()); d > 0 {
			o.clk.Sleep(d)
		}
		sent := o.clk.Now()
		op(k)
		o.record(due, sent, o.clk.Now())
	}
	return k
}

func (o *openLoop) record(due, sent, done time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.late = append(o.late, ms(sent.Sub(due)))
	o.latency = append(o.latency, ms(done.Sub(due)))
}

// mark returns the number of operations recorded so far.
func (o *openLoop) mark() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.latency)
}

// since copies the lateness and latency of the operations recorded
// after mark from.
func (o *openLoop) since(from int) (late, latency []float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]float64(nil), o.late[from:]...), append([]float64(nil), o.latency[from:]...)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
