package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// call is one reusable in-process request: the request object, its body
// and the response recorder are allocated once, so the client side of
// the loop adds almost nothing to the measured cost.
type call struct {
	req  *http.Request
	body []byte
	rd   bytes.Reader
	w    recorder
}

func newCall(method, path, contentType string, body []byte) *call {
	c := &call{body: body}
	req, err := http.NewRequest(method, path, nil)
	if err != nil {
		panic(err) // method and path are constants of this program
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.req = req
	c.w.header = http.Header{}
	return c
}

// do serves the request and returns the status and response body; the
// body is valid until the next do.
func (c *call) do(h http.Handler) (int, []byte) {
	c.rd.Reset(c.body)
	c.req.Body = io.NopCloser(&c.rd)
	c.req.ContentLength = int64(len(c.body))
	c.w.reset()
	h.ServeHTTP(&c.w, c.req)
	return c.w.status, c.w.buf.Bytes()
}

// recorder is a minimal reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) reset() {
	for k := range r.header {
		delete(r.header, k)
	}
	r.status = 0
	r.buf.Reset()
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}

// scrape reads the server's /metrics exposition in-process.
func scrape(h http.Handler) (counters, error) {
	c := newCall(http.MethodGet, "/metrics", "", nil)
	status, body := c.do(h)
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseExposition(body)
}

// counters maps each exposition series ("name" or "name{labels}") to
// its value.
type counters map[string]float64

// parseExposition parses the Prometheus text format: comment lines are
// skipped and every sample line is "series value".
func parseExposition(b []byte) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after[series] − c[series]; a series missing on either side
// counts as zero.
func (c counters) delta(after counters, series string) float64 {
	return after[series] - c[series]
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// gcCPU samples the runtime's cumulative GC and total CPU estimates.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

// fracSince is the share of CPU spent in GC between g and now.
func (g gcCPU) fracSince() float64 {
	now := readGCCPU()
	if now.total <= g.total {
		return 0
	}
	return (now.gc - g.gc) / (now.total - g.total)
}
