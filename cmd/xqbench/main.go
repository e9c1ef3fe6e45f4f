// Command xqbench is a rockbench-style closed-loop load generator for
// a live xqestd daemon: N estimate workers and M append workers hammer
// the HTTP API concurrently, and the report records sustained QPS,
// client-observed tail latency (p50/p95/p99), and append-to-visible
// staleness — the time from issuing an append until an /estimate
// response's snapshot version proves the new documents are being
// served.
//
// Against a durable daemon (xqestd -data-dir) it also records
// ack-to-durable: the time from issuing an append until its WAL record
// is known fsynced — the ack itself under -fsync always, a poll of
// /stats durability.durable_seq under interval/off.
//
//	xqestd -dataset dblp -scale 0.1 -addr 127.0.0.1:8080 &
//	xqbench -addr http://127.0.0.1:8080 -duration 10s \
//	        -estimators 8 -appenders 2 -o serving.json
//
// Against a replicated deployment, -targets names every node: appends
// go to the first (the leader), estimates scatter across all, and the
// report adds per-node QPS plus cross-node append-to-visible lag —
// the time from the leader's append ack until each follower serves the
// appended version:
//
//	xqbench -targets http://leader:8080,http://f1:8081 -duration 10s
//
// Closed loop means each worker issues its next request only after the
// previous response: reported QPS is sustained throughput at bounded
// concurrency, not an open-loop arrival rate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlest/internal/metrics"
	"xmlest/internal/version"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	targets := flag.String("targets", "", "comma-separated base URLs for a replicated deployment: appends go to the first (the leader), estimates scatter across all, and the report adds per-node QPS and cross-node append-to-visible lag (overrides -addr)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	estimators := flag.Int("estimators", 8, "closed-loop estimate workers")
	appenders := flag.Int("appenders", 2, "closed-loop append workers")
	patterns := flag.String("patterns", "//article//author,//article//year,//article//title",
		"comma-separated twig patterns cycled by estimate workers")
	visPattern := flag.String("vis-pattern", "", "pattern for visibility probes (default: first of -patterns)")
	wait := flag.Duration("wait", 10*time.Second, "max wait for the daemon to report healthy")
	out := flag.String("o", "", "write the JSON report here (default stdout)")
	showVersion := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("xqbench " + version.String())
		return
	}

	pats := strings.Split(*patterns, ",")
	probe := *visPattern
	if probe == "" {
		probe = pats[0]
	}

	nodes := []string{strings.TrimRight(*addr, "/")}
	if *targets != "" {
		nodes = nodes[:0]
		for _, tgt := range strings.Split(*targets, ",") {
			if tgt = strings.TrimRight(strings.TrimSpace(tgt), "/"); tgt != "" {
				nodes = append(nodes, tgt)
			}
		}
		if len(nodes) == 0 {
			fatal(fmt.Errorf("xqbench: -targets named no URLs"))
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *estimators + *appenders + 8,
		MaxIdleConnsPerHost: *estimators + *appenders + 8,
	}}
	b := &bench{
		addr:    nodes[0],
		nodes:   nodes,
		client:  client,
		pats:    pats,
		probe:   probe,
		est:     metrics.NewLatencyHistogram(),
		app:     metrics.NewLatencyHistogram(),
		visible: metrics.NewLatencyHistogram(),
		durable: metrics.NewLatencyHistogram(),
		durSem:  make(chan struct{}, *appenders+1),
		visSem:  make(chan struct{}, 2),
	}
	for range nodes {
		b.nodeEst = append(b.nodeEst, metrics.NewLatencyHistogram())
		b.nodeVis = append(b.nodeVis, metrics.NewLatencyHistogram())
	}

	if err := b.waitHealthy(*wait); err != nil {
		fatal(err)
	}

	// Scrape the daemon's /metrics on both sides of the run: the report
	// embeds the deltas of every counter-style series, so one JSON file
	// carries the client's view and the daemon's own (fsyncs, commit
	// groups, stage counts) for the same window.
	before := b.scrapeMetrics()

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *estimators; i++ {
		wg.Add(1)
		go func(id int) { defer wg.Done(); b.estimateLoop(ctx, id) }(i)
	}
	for i := 0; i < *appenders; i++ {
		wg.Add(1)
		go func(id int) { defer wg.Done(); b.appendLoop(ctx, id) }(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := b.report(elapsed, *estimators, *appenders)
	report.MetricsDelta = metricsDelta(before, b.scrapeMetrics())
	report.AccuracyDelta = accuracyDelta(report.MetricsDelta)
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if b.errs.Load() > 0 {
		fatal(fmt.Errorf("xqbench: %d request errors during the run", b.errs.Load()))
	}
}

type bench struct {
	addr   string   // the append target: nodes[0]
	nodes  []string // all serving nodes; length 1 outside -targets mode
	client *http.Client
	pats   []string
	probe  string

	est     *metrics.LatencyHistogram // estimate request latency (all nodes)
	app     *metrics.LatencyHistogram // append request latency
	visible *metrics.LatencyHistogram // append-to-visible on the append target
	durable *metrics.LatencyHistogram // ack-to-durable (durable daemons)
	errs    atomic.Uint64

	// Per-node views for -targets mode, index-aligned with nodes:
	// each node's estimate latency (per-node QPS) and its own
	// append-to-visible — for followers that is the cross-node lag from
	// the leader's append ack to the follower serving the version.
	nodeEst []*metrics.LatencyHistogram
	nodeVis []*metrics.LatencyHistogram

	// durSem bounds concurrent durability polls: ack-to-durable is
	// sampled (one outstanding poll per append worker) rather than
	// awaited inline, so an interval/off fsync cadence does not
	// throttle the closed append loop itself.
	durSem chan struct{}

	// visSem likewise bounds concurrent visibility probes:
	// append-to-visible is sampled in the background instead of awaited
	// after every append, so the closed append loop measures append
	// throughput rather than probe round-trips.
	visSem chan struct{}
}

// errBackpressured marks a 503 from /append: expected under load, not
// a benchmark failure.
var errBackpressured = errors.New("append: backpressured")

// estimateResponse is the slice of the wire type xqbench needs.
type estimateResponse struct {
	Version uint64 `json:"version"`
}

type appendResponse struct {
	Version uint64 `json:"version"`
	WALSeq  uint64 `json:"wal_seq"`
	Durable *bool  `json:"durable"`
}

// healthDurability is the /healthz slice the durability poll reads:
// the probe endpoint carries the durable watermark precisely so that
// pollers do not have to pay for the full /stats encoding.
type healthDurability struct {
	DurableSeq *uint64 `json:"durable_seq"`
}

// waitHealthy polls every node's /healthz until each answers 200. The
// whole wait — including any single wedged probe — is bounded by the
// one budget, so a daemon that accepts connections but never responds
// still fails fast.
func (b *bench) waitHealthy(budget time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	for _, node := range b.nodes {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
			if err != nil {
				return err
			}
			resp, err := b.client.Do(req)
			healthy := false
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				healthy = resp.StatusCode == http.StatusOK
			}
			if healthy {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("xqbench: daemon at %s not healthy after %s", node, budget)
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

// estimateLoop is one closed-loop estimate worker cycling through the
// pattern list and, in -targets mode, round-robining across the nodes.
func (b *bench) estimateLoop(ctx context.Context, id int) {
	for i := id; ctx.Err() == nil; i++ {
		pat := b.pats[i%len(b.pats)]
		ni := i % len(b.nodes)
		start := time.Now()
		_, err := b.postEstimate(ctx, b.nodes[ni], pat)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			b.errs.Add(1)
			continue
		}
		elapsed := time.Since(start)
		b.est.Observe(elapsed)
		b.nodeEst[ni].Observe(elapsed)
	}
}

// appendLoop is one closed-loop append worker: it lands a small
// document, then immediately issues the next one. Append-to-visible
// and ack-to-durable are both sampled by bounded background probes, so
// the loop's throughput is append throughput.
func (b *bench) appendLoop(ctx context.Context, id int) {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	for seq := 0; ctx.Err() == nil; seq++ {
		doc := syntheticDoc(rng, id, seq)
		start := time.Now()
		ar, err := b.postAppend(ctx, doc)
		ver := ar.Version
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if !errors.Is(err, errBackpressured) {
				b.errs.Add(1)
			}
			continue
		}
		b.app.Observe(time.Since(start))
		// Ack-to-durable: the daemon reports durability only with a
		// data directory. Under -fsync always the ack is the proof;
		// otherwise sample the durable watermark in the background so
		// the fsync cadence never throttles the append loop.
		if ar.Durable != nil {
			if *ar.Durable {
				b.durable.Observe(time.Since(start))
			} else {
				select {
				case b.durSem <- struct{}{}:
					go func(seq uint64, start time.Time) {
						defer func() { <-b.durSem }()
						if b.pollDurable(ctx, seq) {
							b.durable.Observe(time.Since(start))
						}
					}(ar.WALSeq, start)
				default: // a poll is already sampling; skip this append
				}
			}
		}
		select {
		case b.visSem <- struct{}{}:
			go func(ver uint64, start time.Time) {
				defer func() { <-b.visSem }()
				// One probe per node, concurrently: a follower's visibility
				// lag must be measured from the same append ack as the
				// leader's, not after the leader's probe finished.
				var pwg sync.WaitGroup
				for ni := range b.nodes {
					pwg.Add(1)
					go func(ni int) {
						defer pwg.Done()
						b.pollVisible(ctx, ni, ver, start)
					}(ni)
				}
				pwg.Wait()
			}(ver, start)
		default: // probes already sampling; skip this append
		}
	}
}

// pollVisible probes one node's /estimate until the served snapshot
// version reaches ver, recording the full append-to-visible time: on
// the append target that is install-to-serve, on a follower it is the
// cross-node replication lag.
func (b *bench) pollVisible(ctx context.Context, ni int, ver uint64, start time.Time) {
	for ctx.Err() == nil {
		served, err := b.postEstimate(ctx, b.nodes[ni], b.probe)
		if err != nil {
			if ctx.Err() == nil {
				b.errs.Add(1)
			}
			return
		}
		if served >= ver {
			elapsed := time.Since(start)
			b.nodeVis[ni].Observe(elapsed)
			if ni == 0 {
				b.visible.Observe(elapsed)
			}
			return
		}
		// Pace the probe: it samples staleness, it must not become a
		// busy-loop competing with the measured estimate workers.
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// postEstimate issues one single-pattern estimate against one node and
// returns the snapshot version it was served from.
func (b *bench) postEstimate(ctx context.Context, node, pattern string) (uint64, error) {
	body, _ := json.Marshal(map[string]string{"pattern": pattern})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/estimate", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("estimate: HTTP %d", resp.StatusCode)
	}
	var er estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return 0, err
	}
	return er.Version, nil
}

// postAppend lands one raw-XML document and returns the append
// response (install version, and WAL watermarks on durable daemons).
func (b *bench) postAppend(ctx context.Context, doc string) (appendResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.addr+"/append", strings.NewReader(doc))
	if err != nil {
		return appendResponse{}, err
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := b.client.Do(req)
	if err != nil {
		return appendResponse{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// Backpressure is the daemon working as designed; retry after a
		// beat rather than counting an error.
		time.Sleep(50 * time.Millisecond)
		return appendResponse{}, errBackpressured
	}
	if resp.StatusCode != http.StatusOK {
		return appendResponse{}, fmt.Errorf("append: HTTP %d", resp.StatusCode)
	}
	var ar appendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return appendResponse{}, err
	}
	return ar, nil
}

// pollDurable waits until the daemon's durable watermark reaches seq
// (fsync interval/off policies), reporting success.
func (b *bench) pollDurable(ctx context.Context, seq uint64) bool {
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/healthz", nil)
		if err != nil {
			return false
		}
		resp, err := b.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return false
			}
			b.errs.Add(1)
			return false
		}
		var hd healthDurability
		derr := json.NewDecoder(resp.Body).Decode(&hd)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if derr != nil || hd.DurableSeq == nil {
			return false
		}
		if *hd.DurableSeq >= seq {
			return true
		}
		// Pace well below the durability cadences being measured (100ms
		// interval flush, seconds-scale checkpoints): even a cheap probe
		// polled tightly taxes the daemon it is measuring.
		select {
		case <-ctx.Done():
			return false
		case <-time.After(20 * time.Millisecond):
		}
	}
	return false
}

// syntheticDoc renders a small dblp-flavoured document whose tags are
// in the default datasets' vocabulary, so appended shards answer the
// benchmark's patterns.
func syntheticDoc(rng *rand.Rand, worker, seq int) string {
	var sb strings.Builder
	sb.WriteString("<article>")
	fmt.Fprintf(&sb, "<author>bench w%d</author>", worker)
	fmt.Fprintf(&sb, "<title>load doc %d-%d</title>", worker, seq)
	fmt.Fprintf(&sb, "<year>%d</year>", 1990+rng.Intn(30))
	sb.WriteString("</article>")
	return sb.String()
}

// histJSON flattens a latency histogram for the report.
type histJSON struct {
	Requests uint64  `json:"requests"`
	QPS      float64 `json:"qps"`
	MeanUS   float64 `json:"mean_us"`
	P50US    float64 `json:"p50_us"`
	P95US    float64 `json:"p95_us"`
	P99US    float64 `json:"p99_us"`
	MaxUS    float64 `json:"max_us"`
}

func digest(h *metrics.LatencyHistogram, elapsed time.Duration) histJSON {
	s := h.Summary()
	out := histJSON{
		Requests: s.Count,
		MeanUS:   s.MeanUSec,
		P50US:    s.P50USec,
		P95US:    s.P95USec,
		P99US:    s.P99USec,
		MaxUS:    float64(s.Max) / float64(time.Microsecond),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		out.QPS = float64(s.Count) / sec
	}
	return out
}

// groupCommitJSON is the report's digest of the daemon's group-commit
// counters: how many appends shared each fsync and how often the disk
// actually synced. Read from the final /stats snapshot, so the figures
// cover the daemon's whole uptime, not just the measured window.
type groupCommitJSON struct {
	Groups        uint64  `json:"groups"`
	Batches       uint64  `json:"batches"`
	MeanGroupSize float64 `json:"mean_group_size"`
	P50GroupSize  float64 `json:"p50_group_size"`
	P95GroupSize  float64 `json:"p95_group_size"`
	MaxGroupSize  uint64  `json:"max_group_size"`
	Fsyncs        uint64  `json:"fsyncs"`
	FsyncsPerSec  float64 `json:"fsyncs_per_sec"`
}

// statsGroupCommit is the /stats slice the report digest reads.
type statsGroupCommit struct {
	Durability *struct {
		GroupCommit *struct {
			Groups    uint64 `json:"groups"`
			Batches   uint64 `json:"batches"`
			GroupSize struct {
				Mean float64 `json:"mean"`
				P50  float64 `json:"p50"`
				P95  float64 `json:"p95"`
				Max  uint64  `json:"max"`
			} `json:"group_size"`
			Fsyncs       uint64  `json:"fsyncs"`
			FsyncsPerSec float64 `json:"fsyncs_per_sec"`
		} `json:"group_commit"`
	} `json:"durability"`
}

// nodeReportJSON is one node's view in a -targets (replicated) run:
// its own estimate serving figures and its append-to-visible lag —
// cross-node for followers, measured from the leader's append ack.
type nodeReportJSON struct {
	Target          string   `json:"target"`
	Role            string   `json:"role"`
	Estimate        histJSON `json:"estimate"`
	AppendToVisible histJSON `json:"append_to_visible"`
}

type reportJSON struct {
	Target          string   `json:"target"`
	DurationSeconds float64  `json:"duration_seconds"`
	Estimators      int      `json:"estimate_workers"`
	AppendWorkers   int      `json:"append_workers"`
	Errors          uint64   `json:"errors"`
	Estimate        histJSON `json:"estimate"`
	Append          histJSON `json:"append"`
	AppendToVisible histJSON `json:"append_to_visible"`
	// Nodes breaks the run down per serving node in -targets mode:
	// appends all went to the first (the leader); each entry's
	// append_to_visible is that node's lag from the same append acks.
	Nodes        []nodeReportJSON `json:"nodes,omitempty"`
	AckToDurable *histJSON        `json:"ack_to_durable,omitempty"`
	GroupCommit  *groupCommitJSON `json:"group_commit,omitempty"`
	ServerStats  json.RawMessage  `json:"server_stats,omitempty"`
	// MetricsDelta is the change in every counter-style /metrics series
	// (_total/_count/_sum suffixes) across the load window — the
	// daemon's own account of the run (fsyncs, commit groups, per-stage
	// samples). Absent when the daemon exposes no /metrics.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
	// AccuracyDelta surfaces the shadow-execution accuracy counters
	// (the xqest_accuracy_* families) separately from the full delta
	// map, so accuracy regression runs read them without grepping.
	// Absent when the daemon ran without shadow sampling.
	AccuracyDelta map[string]float64 `json:"accuracy_delta,omitempty"`
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition
// into a series->value map (key = name plus label set, verbatim).
// A daemon without /metrics yields nil, which disables the delta.
func (b *bench) scrapeMetrics() map[string]float64 {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// metricsDelta subtracts two scrapes over the counter-style series.
// Buckets are skipped (the _count/_sum pair already summarizes each
// histogram); gauges are skipped because a point-in-time difference of
// a gauge is noise, not a rate.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	if before == nil || after == nil {
		return nil
	}
	out := make(map[string]float64)
	for key, v := range after {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") &&
			!strings.HasSuffix(name, "_sum") {
			continue
		}
		if d := v - before[key]; d != 0 {
			out[key] = d
		}
	}
	return out
}

// accuracyDelta extracts the shadow-execution accuracy counters from a
// full metrics delta (nil when none moved — sampling off or no scrape).
func accuracyDelta(delta map[string]float64) map[string]float64 {
	var out map[string]float64
	for key, v := range delta {
		if strings.HasPrefix(key, "xqest_accuracy_") {
			if out == nil {
				out = make(map[string]float64)
			}
			out[key] = v
		}
	}
	return out
}

func (b *bench) report(elapsed time.Duration, estimators, appenders int) reportJSON {
	r := reportJSON{
		Target:          b.addr,
		DurationSeconds: elapsed.Seconds(),
		Estimators:      estimators,
		AppendWorkers:   appenders,
		Errors:          b.errs.Load(),
		Estimate:        digest(b.est, elapsed),
		Append:          digest(b.app, elapsed),
		AppendToVisible: digest(b.visible, elapsed),
	}
	if d := digest(b.durable, elapsed); d.Requests > 0 {
		r.AckToDurable = &d
	}
	if len(b.nodes) > 1 {
		for ni, node := range b.nodes {
			role := "follower"
			if ni == 0 {
				role = "leader"
			}
			r.Nodes = append(r.Nodes, nodeReportJSON{
				Target:          node,
				Role:            role,
				Estimate:        digest(b.nodeEst[ni], elapsed),
				AppendToVisible: digest(b.nodeVis[ni], elapsed),
			})
		}
	}
	// Fold in the daemon's own view (server-side latency excludes the
	// network) when it answers promptly; a daemon wedged after the run
	// must not hang the report we already computed.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/stats", nil)
	if err != nil {
		return r
	}
	if resp, err := b.client.Do(req); err == nil {
		stats, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && json.Valid(stats) {
			r.ServerStats = stats
			var sg statsGroupCommit
			if json.Unmarshal(stats, &sg) == nil && sg.Durability != nil &&
				sg.Durability.GroupCommit != nil && sg.Durability.GroupCommit.Groups > 0 {
				gc := sg.Durability.GroupCommit
				r.GroupCommit = &groupCommitJSON{
					Groups:        gc.Groups,
					Batches:       gc.Batches,
					MeanGroupSize: gc.GroupSize.Mean,
					P50GroupSize:  gc.GroupSize.P50,
					P95GroupSize:  gc.GroupSize.P95,
					MaxGroupSize:  gc.GroupSize.Max,
					Fsyncs:        gc.Fsyncs,
					FsyncsPerSec:  gc.FsyncsPerSec,
				}
			}
		}
	}
	return r
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
