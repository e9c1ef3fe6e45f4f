package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"xmlest"
)

// twigSet is a workload's sampled patterns and the reference estimates
// responses are checked against.
type twigSet struct {
	twigs []string
	// expected maps each twig to Estimator.Estimate on the snapshot the
	// load runs against; nil when the database changes under the load.
	expected map[string]float64
	version  uint64
}

// loadTwigs draws n positive twigs from the database's single shard and
// records their reference estimates.
func loadTwigs(seed int64, db *xmlest.Database, n int) (*twigSet, error) {
	twigs, err := newSampler(newRand(seed), db.Catalog()).sample(n)
	if err != nil {
		return nil, err
	}
	est, err := db.NewEstimator(serveOptions)
	if err != nil {
		return nil, err
	}
	snap := est.Snapshot()
	ts := &twigSet{twigs: twigs, expected: map[string]float64{}, version: snap.Version()}
	for _, t := range twigs {
		r, err := snap.Estimate(t)
		if err != nil {
			return nil, fmt.Errorf("estimate %s: %w", t, err)
		}
		ts.expected[t] = r.Estimate
	}
	return ts, nil
}

// estimateCalls builds one /estimate request per batch: batch
// consecutive twigs, taken cyclically, so every twig is requested
// equally often.
func estimateCalls(twigs []string, batch int) ([]*call, [][]string) {
	n := len(twigs) / gcd(len(twigs), batch) // batches until the cycle repeats
	calls := make([]*call, n)
	batches := make([][]string, n)
	for i := range calls {
		ps := make([]string, batch)
		for j := range ps {
			ps[j] = twigs[(i*batch+j)%len(twigs)]
		}
		var body []byte
		if batch == 1 {
			body, _ = json.Marshal(map[string]string{"pattern": ps[0]})
		} else {
			body, _ = json.Marshal(map[string][]string{"patterns": ps})
		}
		calls[i] = newCall(http.MethodPost, "/estimate", "application/json", body)
		batches[i] = ps
	}
	return calls, batches
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// checkEstimate validates one /estimate response: status 200, one
// finite non-negative estimate per pattern and, when a reference is
// known, each estimate bit-equal to it at the reference version.
func checkEstimate(status int, body []byte, patterns []string, ts *twigSet) error {
	if status != http.StatusOK {
		return fmt.Errorf("/estimate status %d: %.200s", status, body)
	}
	version, rest, err := jsonUint(body, `"version":`)
	if err != nil {
		return err
	}
	if i := bytes.Index(rest, []byte(`"results":[`)); i >= 0 {
		rest = rest[i:]
	} else {
		return fmt.Errorf("/estimate response without results: %.200s", body)
	}
	for _, p := range patterns {
		var v float64
		if v, rest, err = jsonFloat(rest, `"estimate":`); err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("/estimate %s = %v", p, v)
		}
		if ts.expected == nil {
			continue
		}
		if version != ts.version {
			return fmt.Errorf("/estimate served version %d, reference is %d", version, ts.version)
		}
		if want := ts.expected[p]; math.Float64bits(v) != math.Float64bits(want) {
			return fmt.Errorf("/estimate %s = %v, Estimator.Estimate = %v", p, v, want)
		}
	}
	return nil
}

// jsonNumber finds key in b and returns the number text after it and
// the remaining input.
func jsonNumber(b []byte, key string) ([]byte, []byte, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return nil, nil, fmt.Errorf("response lacks %s", key)
	}
	b = b[i+len(key):]
	j := bytes.IndexAny(b, ",}")
	if j < 0 {
		return nil, nil, fmt.Errorf("unterminated %s", key)
	}
	return b[:j], b[j:], nil
}

func jsonFloat(b []byte, key string) (float64, []byte, error) {
	num, rest, err := jsonNumber(b, key)
	if err != nil {
		return 0, nil, err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, rest, err
}

func jsonUint(b []byte, key string) (uint64, []byte, error) {
	num, rest, err := jsonNumber(b, key)
	if err != nil {
		return 0, nil, err
	}
	v, err := strconv.ParseUint(string(num), 10, 64)
	return v, rest, err
}

// estimateLoad is the closed-loop /estimate client: one request at a
// time, cycling through calls.
type estimateLoad struct {
	h       http.Handler
	calls   []*call
	batches [][]string
	twigs   *twigSet
	next    int
	rep     *report
	// onRequest, when set, runs after every request (outside its timing).
	onRequest func()
	// others, when set, counts operations other than these requests
	// completed so far in the process; they share the CPU per operation.
	others func() int64
}

// one sends the next request and returns its latency.
func (l *estimateLoad) one() time.Duration {
	i := l.next % len(l.calls)
	l.next++
	c := l.calls[i]
	start := time.Now()
	status, body := c.do(l.h)
	d := time.Since(start)
	l.rep.check(checkEstimate(status, body, l.batches[i], l.twigs))
	if l.onRequest != nil {
		l.onRequest()
	}
	return d
}

// runFor sends requests for d without recording them (warm-up).
func (l *estimateLoad) runFor(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
		l.one()
	}
	return n
}

// measure runs the loop for n windows of length each and returns them.
// One latency buffer is reused across windows, so the measurement's own
// memory stays constant over the run.
func (l *estimateLoad) measure(n int, each time.Duration) []window {
	ws := make([]window, n)
	var latency []float64
	for k := range ws {
		w := &ws[k]
		latency = latency[:0]
		others0 := l.otherOps()
		cpu0, t0 := cpuTime(), time.Now()
		end := t0.Add(each)
		for {
			latency = append(latency, micros(l.one()))
			if !time.Now().Before(end) {
				break
			}
		}
		w.wall, w.cpu = time.Since(t0), cpuTime()-cpu0
		w.ops, w.other = len(latency), int(l.otherOps()-others0)
		w.closeWindow(latency)
	}
	return ws
}

func (l *estimateLoad) otherOps() int64 {
	if l.others == nil {
		return 0
	}
	return l.others()
}
