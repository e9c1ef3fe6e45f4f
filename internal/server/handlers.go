package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"xmlest"
	"xmlest/internal/trace"
	"xmlest/internal/version"
)

// Wire types. Versions let clients reason about snapshot visibility:
// an /append response's version is the first snapshot containing the
// new shard, and any /estimate response with version >= it reflects
// the appended documents — the append-to-visible contract that
// TestAppendMakesDocumentsVisible checks.

// EstimateRequest asks for one pattern or a batch. Pattern and
// Patterns may be combined; Pattern is estimated first.
type EstimateRequest struct {
	Pattern  string   `json:"pattern,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
}

// EstimateResult is one pattern's estimate.
type EstimateResult struct {
	Pattern       string  `json:"pattern"`
	Estimate      float64 `json:"estimate"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	UsedNoOverlap bool    `json:"used_no_overlap"`
}

// EstimateResponse reports the snapshot version every result was
// computed against. Estimate echoes the first result for one-pattern
// requests.
type EstimateResponse struct {
	Version  uint64           `json:"version"`
	Estimate *float64         `json:"estimate,omitempty"`
	Results  []EstimateResult `json:"results"`
}

// AppendResponse describes the landed shard and the first snapshot
// version that serves it. On a durable daemon it also reports the
// batch's write-ahead-log sequence and whether that record is already
// fsynced — the ack-to-durable contract: under -fsync always Durable
// is true in the ack itself (TestDurableServer; perfbench's
// ingest-mixed recovers every acknowledged append after SIGKILL);
// under interval/off clients can poll /healthz until durable_seq
// reaches WALSeq.
type AppendResponse struct {
	ShardID uint64 `json:"shard_id"`
	Docs    int    `json:"docs"`
	Nodes   int    `json:"nodes"`
	Version uint64 `json:"version"`
	WALSeq  uint64 `json:"wal_seq,omitempty"`
	Durable *bool  `json:"durable,omitempty"`
	// Streamed marks a summary-only shard built by /append-stream: the
	// raw document was never retained, so the shard cannot seed future
	// predicate rebuilds, and on durable servers its ack is a
	// checkpoint rather than a WAL record (WALSeq is 0).
	Streamed bool `json:"streamed,omitempty"`
}

// AppendRequest is the JSON ingest form: each document is one XML
// string; the batch lands as a single shard.
type AppendRequest struct {
	Documents []string `json:"documents"`
}

// CompactRequest optionally overrides the policy's shard-count target.
type CompactRequest struct {
	MaxShards int `json:"max_shards,omitempty"`
}

// CompactResponse reports one compaction round's outcome.
type CompactResponse struct {
	Merged  int    `json:"merged"`
	Shards  int    `json:"shards"`
	Version uint64 `json:"version"`
}

// ShardJSON describes one live shard. InstalledAt is the first
// snapshot version that served it (0 for loaded, store-less sets);
// WALSeq is the shard's write-ahead-log watermark on a durable daemon.
type ShardJSON struct {
	ID          uint64 `json:"id"`
	Docs        int    `json:"docs"`
	Nodes       int    `json:"nodes"`
	SummaryOnly bool   `json:"summary_only"`
	InstalledAt uint64 `json:"installed_at"`
	WALSeq      uint64 `json:"wal_seq,omitempty"`
}

// ShardsResponse lists the serving shard set.
type ShardsResponse struct {
	Version uint64      `json:"version"`
	Shards  []ShardJSON `json:"shards"`
}

// DegradedJSON names the failed component on a degraded daemon: "wal"
// (log sealed; mutations refused until restart), "checkpoint" (last
// checkpoint failed; retried with backoff) or "replication" (follower
// past its staleness budget; reads serve the last applied state).
type DegradedJSON struct {
	Component string `json:"component"`
	Reason    string `json:"reason"`
}

// ReplicationJSON is the /healthz replication section: the node's role
// and, on a follower, its lag. The stream counters are families of the
// registry (xqest_replica_*), on /stats and /metrics.
type ReplicationJSON struct {
	// Role is "leader" (durable; serves /wal/stream), "follower"
	// (replicating from Upstream; also serves /wal/stream for chaining)
	// or "standalone" (non-durable; nothing to ship).
	Role     string `json:"role"`
	Upstream string `json:"upstream,omitempty"`
	// Follower-side lag: sequences behind the leader's durable WAL
	// watermark, and seconds since the leader was last heard from.
	Connected  *bool    `json:"connected,omitempty"`
	LeaderSeq  *uint64  `json:"leader_seq,omitempty"`
	AppliedSeq *uint64  `json:"applied_seq,omitempty"`
	LagSeq     *uint64  `json:"lag_seq,omitempty"`
	LagSeconds *float64 `json:"lag_seconds,omitempty"`
	Stale      bool     `json:"stale,omitempty"`
}

// HealthResponse is the /healthz body. Status is "ok", "degraded"
// (reads serve, durable mutations fail; Degraded has the component) or
// "draining" (shutdown in progress, 503).
type HealthResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
	Shards  int    `json:"shards"`
	// DurableSeq is the WAL durability watermark on daemons with a data
	// directory: every sequence ≤ it has been flushed to disk. Exposed
	// here as well as in xqest_wal_durable_seq because durability
	// monitors may poll at rates a full gather should not be asked to
	// serve.
	DurableSeq *uint64       `json:"durable_seq,omitempty"`
	Degraded   *DegradedJSON `json:"degraded,omitempty"`
	// Replication reports the node's role and, on a follower, its lag —
	// the fields a health monitor needs without a full gather.
	Replication *ReplicationJSON `json:"replication,omitempty"`
	// Build identifies the serving binary.
	Build string `json:"build"`
}

// ErrorResponse carries a client-readable error; Degraded is set when
// the error is the storage layer's degraded state rather than the
// request's fault.
type ErrorResponse struct {
	Error    string        `json:"error"`
	Degraded *DegradedJSON `json:"degraded,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to do on error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// writeFollowerRefusal rejects a mutation on a follower: its state is
// the leader's WAL, nothing else may write it.
func writeFollowerRefusal(w http.ResponseWriter, upstream, what string) {
	writeError(w, http.StatusForbidden,
		"read-only follower replicating from "+upstream+": "+what+" must go to the leader")
}

// writeDegraded rejects a mutation because a storage component failed:
// 503 with the component and reason, plus Retry-After — a "checkpoint"
// degradation clears on its own; a sealed WAL needs an operator (and a
// healthy disk) anyway.
func writeDegraded(w http.ResponseWriter, component, reason string) {
	w.Header().Set("Retry-After", "10")
	writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error:    "storage degraded (" + component + "): mutations refused, reads still serve",
		Degraded: &DegradedJSON{Component: component, Reason: reason},
	})
}

// degradedJSON snapshots the database's degraded state, nil when
// healthy or non-durable.
func (s *Server) degradedJSON() *DegradedJSON {
	if s.db == nil {
		return nil
	}
	if comp, reason, bad := s.db.Degraded(); bad {
		return &DegradedJSON{Component: comp, Reason: reason}
	}
	return nil
}

// role reports the node's replication role: following beats leading
// (a follower is still durable and streamable — chained replication —
// but its defining fact is the upstream).
func (s *Server) role() string {
	switch {
	case s.follower != nil:
		return "follower"
	case s.streamer != nil:
		return "leader"
	default:
		return "standalone"
	}
}

// replicationJSON assembles the /healthz replication section: role,
// upstream, lag and staleness.
func (s *Server) replicationJSON() *ReplicationJSON {
	rj := &ReplicationJSON{Role: s.role()}
	if s.follower != nil {
		fs := s.follower.Status()
		rj.Upstream = fs.Upstream
		connected := fs.Connected
		rj.Connected = &connected
		rj.LeaderSeq = &fs.LeaderSeq
		rj.AppliedSeq = &fs.AppliedSeq
		rj.LagSeq = &fs.LagSeq
		lagSec := fs.LagSeconds
		rj.LagSeconds = &lagSec
		rj.Stale = fs.Stale
	}
	return rj
}

// replicationDegraded maps follower staleness (or a fatal stream
// refusal) to the degraded contract: reads serve, the body says why
// they may be behind. Nil when not following or healthy.
func (s *Server) replicationDegraded() *DegradedJSON {
	if s.follower == nil {
		return nil
	}
	fs := s.follower.Status()
	if fs.FatalError != "" {
		return &DegradedJSON{Component: "replication", Reason: fs.FatalError}
	}
	if !fs.Stale {
		return nil
	}
	reason := fmt.Sprintf("leader %s silent for %.1fs (budget %s); serving version %d, %d sequences behind",
		fs.Upstream, fs.LagSeconds, fs.StalenessBudget, fs.ServedVersion, fs.LagSeq)
	if fs.LastError != "" {
		reason += ": " + fs.LastError
	}
	return &DegradedJSON{Component: "replication", Reason: reason}
}

// writeRequestError maps a body-handling error to its status: 413 for
// oversized bodies (MaxBytesReader fired), 400 for everything else.
func writeRequestError(w http.ResponseWriter, prefix string, err error) {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, prefix+err.Error())
}

// estimateScratch is the per-request working set of the hot /estimate
// path, recycled through a sync.Pool so steady-state serving does no
// per-request slice or buffer allocation: the request body, the
// decoded request, the assembled pattern list, the facade result slice
// (EstimateBatchInto appends into it), the wire response and its
// encoding.
type estimateScratch struct {
	body     bytes.Buffer
	req      EstimateRequest
	patterns []string
	results  []xmlest.Result
	resp     EstimateResponse
	out      []byte
}

var estimatePool = sync.Pool{New: func() any {
	return &estimateScratch{out: make([]byte, 0, 512)}
}}

// maxPooledScratchBytes caps the backing arrays a recycled scratch may
// keep: a scratch that one large request grew past it is dropped for
// the collector instead of pinning that request's memory under every
// later small one.
const maxPooledScratchBytes = 64 << 10

// release returns sc to the pool. Every string the slices still
// reference, past their length too, is cleared first so no earlier
// request's patterns stay reachable through the pool.
func (sc *estimateScratch) release() {
	clear(sc.req.Patterns[:cap(sc.req.Patterns)])
	clear(sc.patterns[:cap(sc.patterns)])
	clear(sc.resp.Results[:cap(sc.resp.Results)])
	sc.req.Pattern, sc.resp.Estimate = "", nil
	footprint := sc.body.Cap() + cap(sc.out) +
		(cap(sc.req.Patterns)+cap(sc.patterns))*int(unsafe.Sizeof("")) +
		cap(sc.results)*int(unsafe.Sizeof(xmlest.Result{})) +
		cap(sc.resp.Results)*int(unsafe.Sizeof(EstimateResult{}))
	if footprint <= maxPooledScratchBytes {
		estimatePool.Put(sc)
	}
}

// handleEstimate serves single and batched estimates from one pinned
// snapshot. Pattern errors (syntax, unknown predicates) are the
// client's: 400. The body is read whole into the pooled scratch (so an
// over-limit body is a 413 from the instrument wrapper's
// MaxBytesReader), scanned without reflection, and answered with
// compact JSON appended into a pooled buffer — this is the endpoint
// the serving benchmarks hammer.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	t := trace.FromContext(r.Context()) // nil unless sampled; all methods nil-safe
	sc := estimatePool.Get().(*estimateScratch)
	defer sc.release()
	t.Begin()
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r.Body); err != nil {
		writeRequestError(w, "bad estimate request: ", err)
		return
	}
	if err := decodeEstimateRequest(sc.body.Bytes(), &sc.req); err != nil {
		writeRequestError(w, "bad estimate request: ", err)
		return
	}
	t.Step(trace.StageDecode)
	patterns := sc.patterns[:0]
	if sc.req.Pattern != "" {
		patterns = append(patterns, sc.req.Pattern)
	}
	patterns = append(patterns, sc.req.Patterns...)
	sc.patterns = patterns
	if len(patterns) == 0 {
		writeError(w, http.StatusBadRequest, "estimate request needs \"pattern\" or \"patterns\"")
		return
	}
	if len(patterns) > s.cfg.MaxBatchPatterns {
		writeError(w, http.StatusBadRequest,
			"too many patterns in one batch: "+strconv.Itoa(len(patterns))+" > "+strconv.Itoa(s.cfg.MaxBatchPatterns))
		return
	}
	version, results, err := s.est.EstimateBatchInto(patterns, sc.results[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	t.Step(trace.StageEstimate)
	for i, res := range results {
		s.patterns.Observe(patterns[i], res.Estimate, res.Elapsed)
		if s.monitor.Sampled() {
			// Sampled() is one nil-safe atomic op; everything that
			// allocates (the snapshot pin, the job closure) happens only on
			// this branch, so the unsampled path stays allocation-free.
			s.shadowSubmit(patterns[i], res.Estimate)
		}
	}
	sc.results = results
	out := sc.resp.Results[:0]
	for i, res := range results {
		out = append(out, EstimateResult{
			Pattern:       patterns[i],
			Estimate:      res.Estimate,
			ElapsedNS:     int64(res.Elapsed),
			UsedNoOverlap: res.UsedNoOverlap,
		})
	}
	sc.resp = EstimateResponse{Version: version, Results: out}
	if len(out) == 1 {
		sc.resp.Estimate = &out[0].Estimate
	}
	if sc.out, err = appendEstimateResponse(sc.out[:0], &sc.resp); err != nil {
		writeError(w, http.StatusInternalServerError, "encode: "+err.Error())
		return
	}
	h := w.Header() // canonical keys, set directly (see requestIDKey)
	h["Content-Type"] = []string{"application/json"}
	h["Content-Length"] = []string{strconv.Itoa(len(sc.out))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out)
	t.Step(trace.StageEncode)
}

// shadowSubmit enqueues one sampled estimate for shadow execution
// against a snapshot pinned here. The pin happens at submit time, so a
// mutation racing the request can make the exact count reflect a
// snapshot one version ahead of the estimate's — an accepted
// approximation: accuracy monitoring digests distributions, and a
// version-skewed sample is still drawn from live traffic.
func (s *Server) shadowSubmit(pattern string, estimate float64) {
	snap := s.est.Snapshot()
	s.monitor.Submit(pattern, estimate, func(deadline time.Time) (float64, error) {
		return snap.ShadowCount(pattern, deadline)
	})
}

// handleAppend lands one shard per request: a raw XML body is one
// document, a JSON {"documents": [...]} batch is parsed as one
// collection. Backpressure: at most MaxInflightAppends run at once;
// the rest are told to retry. Reads are never blocked either way.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.db == nil {
		writeError(w, http.StatusForbidden, "read-only server (loaded from a summary): no document store to append to")
		return
	}
	if s.follower != nil {
		writeFollowerRefusal(w, s.cfg.FollowURL, "appends")
		return
	}
	if comp, reason, bad := s.db.Degraded(); bad && comp == "wal" {
		// The WAL sealed on an I/O failure: nothing can be made durable,
		// so nothing is accepted. (A checkpoint-only degradation does not
		// gate appends — the WAL itself is healthy and keeps every ack.)
		s.noteDegraded()
		writeDegraded(w, comp, reason)
		return
	}
	select {
	case s.appendSem <- struct{}{}:
		defer func() { <-s.appendSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"ingest backpressure: "+strconv.Itoa(s.cfg.MaxInflightAppends)+" appends already in flight")
		return
	}

	var readers []io.Reader
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var req AppendRequest
		if err := decodeJSON(r.Body, &req); err != nil {
			writeRequestError(w, "bad append request: ", err)
			return
		}
		if len(req.Documents) == 0 {
			writeError(w, http.StatusBadRequest, "append request needs at least one document")
			return
		}
		for _, doc := range req.Documents {
			readers = append(readers, strings.NewReader(doc))
		}
	} else {
		readers = append(readers, r.Body)
	}
	info, err := s.db.Append(readers...)
	if err != nil {
		var de *xmlest.DegradedError
		if errors.As(err, &de) {
			// The failure that sealed the log can race the pre-check; the
			// ack is an error either way.
			s.noteDegraded()
			writeDegraded(w, de.Component, err.Error())
			return
		}
		writeRequestError(w, "append: ", err)
		return
	}
	s.appendsSeen.Add(uint64(info.Docs))
	// info.Version is the shard's own install version — the exact
	// visibility watermark — not a re-read of the live version, which a
	// concurrent append or compaction could already have advanced.
	resp := AppendResponse{
		ShardID: info.ID,
		Docs:    info.Docs,
		Nodes:   info.Nodes,
		Version: info.Version,
	}
	if s.db.Durable() {
		// DurableSeq is a lock-free atomic read; the full stats snapshot
		// would take the WAL mutex — which ModeAlways holds across each
		// fsync — on every ack.
		resp.WALSeq = info.WALSeq
		durable := s.db.DurableSeq() >= info.WALSeq
		resp.Durable = &durable
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAppendStream lands one large XML document as a summary-only
// shard without ever buffering it in memory: the body is spooled to a
// temporary file (bounded by maxStreamBytes, far above the buffered
// path's body cap) and the streaming build scans it twice with memory
// bounded by document depth. On a durable daemon the ack is an
// immediate checkpoint rather than a WAL record — see
// Database.AppendStream. Shares the append semaphore: a streamed
// ingest is still ingest.
func (s *Server) handleAppendStream(w http.ResponseWriter, r *http.Request) {
	if s.db == nil {
		writeError(w, http.StatusForbidden, "read-only server (loaded from a summary): no document store to append to")
		return
	}
	if s.follower != nil {
		writeFollowerRefusal(w, s.cfg.FollowURL, "appends")
		return
	}
	select {
	case s.appendSem <- struct{}{}:
		defer func() { <-s.appendSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			"ingest backpressure: "+strconv.Itoa(s.cfg.MaxInflightAppends)+" appends already in flight")
		return
	}

	tmp, err := os.CreateTemp("", "xqestd-stream-*.xml")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "append-stream: spool: "+err.Error())
		return
	}
	name := tmp.Name()
	defer os.Remove(name)
	_, err = io.Copy(tmp, r.Body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		writeRequestError(w, "append-stream: ", err)
		return
	}
	info, err := s.db.AppendStream(func() (io.ReadCloser, error) {
		return os.Open(name)
	}, s.est.Options().GridSize)
	if err != nil {
		var de *xmlest.DegradedError
		if errors.As(err, &de) {
			writeDegraded(w, de.Component, err.Error())
			return
		}
		writeRequestError(w, "append-stream: ", err)
		return
	}
	s.appendsSeen.Add(uint64(info.Docs))
	resp := AppendResponse{
		ShardID:  info.ID,
		Docs:     info.Docs,
		Nodes:    info.Nodes,
		Version:  info.Version,
		Streamed: true,
	}
	if s.db.Durable() {
		// A streamed shard's durability proof is the checkpoint that just
		// committed, not a WAL sequence.
		durable := true
		resp.Durable = &durable
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompact runs one on-demand compaction round.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.db == nil {
		writeError(w, http.StatusForbidden, "read-only server (loaded from a summary): nothing to compact")
		return
	}
	if s.follower != nil {
		// Compaction is a local rewrite the WAL never records, so a
		// follower compacting on its own would diverge from the leader's
		// shard structure — exactness forbids it.
		writeFollowerRefusal(w, s.cfg.FollowURL, "compaction")
		return
	}
	policy := s.cfg.CompactionPolicy
	var req CompactRequest
	if err := decodeJSON(r.Body, &req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad compact request: "+err.Error())
		return
	}
	if req.MaxShards > 0 {
		policy.MaxShards = req.MaxShards
	}
	merged, err := s.db.Compact(policy)
	if err != nil {
		var de *xmlest.DegradedError
		if errors.As(err, &de) {
			writeDegraded(w, de.Component, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "compact: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Merged:  merged,
		Shards:  s.db.ShardCount(),
		Version: s.db.Version(),
	})
}

// handleShards lists the serving shard set. The set is pinned once, so
// the reported version and shard list always belong to the same
// snapshot — the consistency contract every response carries.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	snap := s.est.Snapshot()
	shards := snap.Shards()
	resp := ShardsResponse{Version: snap.Version(), Shards: make([]ShardJSON, len(shards))}
	for i, sh := range shards {
		resp.Shards[i] = ShardJSON{
			ID: sh.ID, Docs: sh.Docs, Nodes: sh.Nodes,
			SummaryOnly: sh.SummaryOnly, InstalledAt: sh.Version,
			WALSeq: sh.WALSeq,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats serves the registry's gather as JSON: the families of
// /metrics, in the same order with the same values, each with its
// name, type, help and samples.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Gather())
}

// handleMetrics serves the registry's gather as Prometheus text. The
// body is staged in a buffer so its length is known up front.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	_ = s.reg.Gather().WriteText(&buf) // a bytes.Buffer write cannot fail
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// handleHealthz is the liveness probe; it turns 503 once Shutdown
// begins so load balancers stop routing here while in-flight requests
// drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.est.Snapshot()
	status, code := "ok", http.StatusOK
	s.noteDegraded()
	degraded := s.degradedJSON()
	if degraded == nil {
		// A stale follower degrades the same way a failed checkpoint
		// does: honestly, without refusing reads. Storage faults win the
		// component slot — they are the more actionable signal.
		degraded = s.replicationDegraded()
	}
	if degraded != nil {
		// Degraded is still 200: reads serve from the in-memory snapshot,
		// so a load balancer probing liveness should keep routing. The
		// body names the failed component for monitoring.
		status = "degraded"
	}
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	var durableSeq *uint64
	if s.db != nil && s.db.Durable() {
		seq := s.db.DurableSeq() // lock-free atomic read
		durableSeq = &seq
	}
	writeJSON(w, code, HealthResponse{
		Status: status, Version: snap.Version(), Shards: snap.ShardCount(),
		DurableSeq: durableSeq, Degraded: degraded,
		Replication: s.replicationJSON(),
		Build:       version.String(),
	})
}
