// Package server is the estimation daemon: an HTTP/JSON API over the
// xmlest Database/Estimator facade that answers answer-size estimates
// at microsecond latency while ingest mutates the corpus underneath.
//
// Endpoints:
//
//	POST /estimate       {"pattern": "..."} or {"patterns": ["...", ...]}
//	POST /append         raw XML body, or {"documents": ["<a/>", ...]} (one shard)
//	POST /append-stream  raw XML body of any size; spooled to disk and
//	                     summarized in two streaming passes (one
//	                     summary-only shard; all-tags vocabulary only)
//	POST /compact        optional {"max_shards": n}
//	GET  /shards    serving shard set
//	GET  /stats     every metric family as JSON (the /metrics gather)
//	GET  /metrics   the same families as Prometheus text
//	GET  /healthz   liveness (503 while draining)
//
// Serving guarantees mirror the shard store's: every /estimate response
// (batched or not) is computed against one atomically-loaded snapshot
// and reports that snapshot's version; /append and /compact install new
// snapshots without ever blocking readers. Ingest is backpressured —
// at most Config.MaxInflightAppends run at once, the rest get 503 with
// Retry-After — while the estimate fast path takes no semaphore at
// all. Shutdown drains in-flight requests and can persist an XQS
// snapshot for the next boot.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"xmlest"
	"xmlest/internal/accuracy"
	"xmlest/internal/metrics"
	"xmlest/internal/replica"
	"xmlest/internal/trace"
	"xmlest/internal/version"
)

// Config tunes the daemon. The zero value serves on DefaultAddr with
// default options and no auto-compaction.
type Config struct {
	// Addr is the listen address ("" means DefaultAddr).
	Addr string

	// Options configures the served estimator; validated at boot.
	Options xmlest.Options

	// MaxInflightAppends bounds concurrent /append requests (ingest
	// backpressure); excess requests receive 503 + Retry-After rather
	// than queue without bound. The default is sized for group commit:
	// admitted appends wait together at the ingest coalescer, which
	// merges everything waiting into one build and one fsync — so the
	// bound is a queue-depth cap, not a concurrency tax. 0 means DefaultMaxInflightAppends; negative is
	// rejected.
	MaxInflightAppends int

	// MaxBatchPatterns bounds the patterns per /estimate request.
	// 0 means DefaultMaxBatchPatterns; negative is rejected.
	MaxBatchPatterns int

	// MaxBodyBytes bounds request bodies. 0 means DefaultMaxBodyBytes;
	// negative is rejected.
	MaxBodyBytes int64

	// AutoCompactInterval, when positive, runs a background compaction
	// round (per CompactionPolicy) that often; compaction rebuilds off
	// the serving path, so estimates are never blocked by it.
	AutoCompactInterval time.Duration

	// CompactionPolicy tunes auto and on-demand compaction; the zero
	// policy uses shard defaults.
	CompactionPolicy xmlest.CompactionPolicy

	// SnapshotPath, when set, persists the estimator's summary (XQS2)
	// there during Shutdown.
	SnapshotPath string

	// CheckpointInterval, when positive and the database is durable
	// (xmlest.OpenDurable), runs a background checkpoint that often:
	// shard summaries are persisted and the covered WAL prefix is
	// truncated, bounding both recovery time and log size. 0 disables
	// the loop; graceful shutdown still checkpoints. Ignored for
	// non-durable databases.
	CheckpointInterval time.Duration

	// ReadTimeout, WriteTimeout and IdleTimeout harden the HTTP server
	// against slow or stalled clients (slowloris, dead peers holding
	// connections). Zero means the defaults below; negative is
	// rejected. ReadTimeout covers the whole request read,
	// WriteTimeout the response write (sized generously so a large
	// synchronous /compact is not cut off), IdleTimeout keep-alive
	// idle connections.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration

	// MaxHeaderBytes bounds request headers. 0 means
	// DefaultMaxHeaderBytes; negative is rejected.
	MaxHeaderBytes int

	// Logger receives serving events as structured records; nil means
	// slog.Default().
	Logger *slog.Logger

	// TraceSample samples 1 in N requests for per-stage pipeline
	// tracing (histograms in /metrics, stage breakdowns in the
	// slow-request log). 0 or negative disables per-request tracing;
	// the always-on append-pipeline histograms are unaffected.
	TraceSample int

	// SlowRequest logs any request slower than this threshold
	// (rate-limited, with the stage breakdown when the request was
	// sampled). 0 disables the slow-request log.
	SlowRequest time.Duration

	// ShadowSample samples 1 in N served estimates for shadow execution:
	// the sampled pattern is exactly counted against a pinned snapshot on
	// a bounded background pool and the observed q-error feeds the
	// accuracy families of /stats and /metrics.
	// The serving path never blocks on it — a full queue drops the
	// sample. 0 or negative disables shadow execution.
	ShadowSample int

	// ShadowBudget is the per-shadow-execution wall-clock budget; an
	// execution that exceeds it is aborted and counted as a deadline
	// miss. 0 means DefaultShadowBudget; negative is rejected.
	ShadowBudget time.Duration

	// FollowURL, when set, boots the daemon as a read-only follower
	// replicating from the leader at this base URL: the WAL tail is
	// streamed and applied at the leader's recorded versions, mutations
	// (/append, /append-stream, /compact) are refused with a pointer to
	// the leader, and /healthz degrades to "degraded"/"replication" when
	// the leader has been silent past StalenessBudget — reads keep
	// serving the last durably applied state either way. Requires a
	// durable database (OpenDurable).
	FollowURL string

	// StalenessBudget is how long the leader may be silent before a
	// follower reports itself stale. 0 means DefaultStalenessBudget;
	// negative is rejected. Ignored unless FollowURL is set.
	StalenessBudget time.Duration
}

// Defaults for the zero Config.
const (
	DefaultAddr = "127.0.0.1:8080"
	// DefaultMaxInflightAppends admits enough concurrent appends for
	// group commit to amortize fsyncs well: admitted requests queue at
	// the ingest coalescer, which merges what waits into one build and
	// one fsync, so a deep bound costs queue memory, not lock contention. The old
	// bound of 4 effectively serialized the write path — each append
	// held its own fsync — capping groups at the bound.
	DefaultMaxInflightAppends = 64
	DefaultMaxBatchPatterns   = 256
	DefaultMaxBodyBytes       = 32 << 20
	DefaultReadTimeout        = time.Minute
	DefaultWriteTimeout       = 5 * time.Minute
	DefaultIdleTimeout        = 2 * time.Minute
	DefaultMaxHeaderBytes     = 1 << 20
	// DefaultShadowBudget bounds one shadow execution. Exact counting of
	// a hostile twig can be combinatorial; 200ms caps the worst case at
	// a tiny fraction of a worker's time without starving verification
	// of ordinary patterns (which count in microseconds).
	DefaultShadowBudget = 200 * time.Millisecond
	// DefaultStalenessBudget is how long a follower tolerates leader
	// silence before reporting itself stale. Generous enough to ride out
	// a leader restart; short enough that monitoring notices a real
	// outage within a scrape or two.
	DefaultStalenessBudget = 30 * time.Second
)

// Checkpoint-retry backoff bounds (see checkpointLoop): consecutive
// failures double the delay from the configured interval up to
// maxCheckpointBackoffMult times it, capped at maxCheckpointBackoff.
const (
	maxCheckpointBackoffMult = 32
	maxCheckpointBackoff     = 5 * time.Minute
)

// maxStreamBytes bounds /append-stream bodies, separately from
// Config.MaxBodyBytes: streamed documents are spooled to disk and
// scanned with memory bounded by depth, so they may be far larger than
// any buffered body.
const maxStreamBytes = 1 << 30

// withDefaults validates and fills in the zero fields.
func (c Config) withDefaults() (Config, error) {
	if c.Addr == "" {
		c.Addr = DefaultAddr
	}
	if c.MaxInflightAppends == 0 {
		c.MaxInflightAppends = DefaultMaxInflightAppends
	}
	if c.MaxBatchPatterns == 0 {
		c.MaxBatchPatterns = DefaultMaxBatchPatterns
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxInflightAppends < 0 || c.MaxBatchPatterns < 0 || c.MaxBodyBytes < 0 {
		return c, fmt.Errorf("server: negative limit in config (appends %d, batch %d, body %d)",
			c.MaxInflightAppends, c.MaxBatchPatterns, c.MaxBodyBytes)
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = DefaultReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.MaxHeaderBytes == 0 {
		c.MaxHeaderBytes = DefaultMaxHeaderBytes
	}
	if c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.IdleTimeout < 0 || c.MaxHeaderBytes < 0 {
		return c, fmt.Errorf("server: negative HTTP hardening limit (read %s, write %s, idle %s, header %d)",
			c.ReadTimeout, c.WriteTimeout, c.IdleTimeout, c.MaxHeaderBytes)
	}
	if c.AutoCompactInterval < 0 {
		return c, fmt.Errorf("server: negative auto-compact interval %s", c.AutoCompactInterval)
	}
	if c.CheckpointInterval < 0 {
		return c, fmt.Errorf("server: negative checkpoint interval %s", c.CheckpointInterval)
	}
	if c.ShadowBudget == 0 {
		c.ShadowBudget = DefaultShadowBudget
	}
	if c.ShadowBudget < 0 {
		return c, fmt.Errorf("server: negative shadow budget %s", c.ShadowBudget)
	}
	if c.StalenessBudget < 0 {
		return c, fmt.Errorf("server: negative staleness budget %s", c.StalenessBudget)
	}
	if c.FollowURL != "" && c.StalenessBudget == 0 {
		c.StalenessBudget = DefaultStalenessBudget
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c, nil
}

// Server serves estimates over HTTP. Create with New (read-write over a
// Database) or NewFromEstimator (read-only over a loaded summary), then
// either mount Handler on your own listener or call Start/Shutdown.
type Server struct {
	cfg Config
	db  *xmlest.Database // nil in read-only mode
	est *xmlest.Estimator
	reg *metrics.Registry

	log       *slog.Logger
	tracer    *trace.Tracer
	estStages *trace.Recorder
	patterns  *metrics.PatternStats
	// monitor shadow-executes sampled estimates; nil when
	// cfg.ShadowSample disables it. Every use is nil-safe.
	monitor *accuracy.Monitor
	// streamer serves the leader-side /wal/stream endpoint on every
	// durable daemon (any durable node can be followed, a follower
	// included — that is chained replication); nil otherwise.
	streamer *replica.Streamer
	// follower replicates from cfg.FollowURL; nil unless following. Its
	// loop starts in newServer (so Handler()-mounted servers replicate
	// too, like the shadow monitor) and stops in Shutdown.
	follower     *replica.Follower
	followCancel context.CancelFunc
	followDone   chan struct{}
	// lastDegraded is the degraded component last observed (""
	// healthy), so transitions log exactly once in each direction.
	lastDegraded atomic.Pointer[string]

	appendSem chan struct{}
	mux       *http.ServeMux

	httpSrv  *http.Server
	listener net.Listener

	draining    atomic.Bool
	loopCancel  context.CancelFunc
	loopDone    chan struct{}
	autoMerges  atomic.Uint64 // shards merged away by the auto-compaction loop
	autoRounds  atomic.Uint64 // auto-compaction rounds run
	cpRounds    atomic.Uint64 // background checkpoint rounds run
	cpFailures  atomic.Uint64 // background checkpoint rounds that failed
	appendsSeen atomic.Uint64 // documents accepted via /append
}

// New builds a read-write server over a database: /append lands new
// shards and /compact (plus the optional auto-compaction loop) merges
// them. Estimator construction validates cfg.Options, so a bad daemon
// config fails here, at boot.
func New(db *xmlest.Database, cfg Config) (*Server, error) {
	est, err := db.NewEstimator(cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return newServer(db, est, cfg)
}

// NewFromEstimator builds a read-only server over a loaded estimator
// (for example, from an XQS summary blob): /estimate, /shards, /stats
// and /healthz serve; /append and /compact return 403.
func NewFromEstimator(est *xmlest.Estimator, cfg Config) (*Server, error) {
	if est == nil {
		return nil, errors.New("server: nil estimator")
	}
	return newServer(nil, est, cfg)
}

func newServer(db *xmlest.Database, est *xmlest.Estimator, cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		db:        db,
		est:       est,
		reg:       metrics.NewRegistry(),
		log:       cfg.Logger,
		patterns:  metrics.NewPatternStats(0),
		appendSem: make(chan struct{}, cfg.MaxInflightAppends),
	}
	empty := ""
	s.lastDegraded.Store(&empty)
	s.estStages = trace.NewRecorder("xqest_estimate_stage_seconds",
		"Estimate path stage durations (sampled).", trace.EstimateStages...)
	s.tracer = trace.New(trace.Config{
		SampleEvery:   cfg.TraceSample,
		SlowThreshold: cfg.SlowRequest,
		Logger:        cfg.Logger,
		Recorder:      s.estStages,
	})
	s.reg.Register(metrics.CollectorFunc(s.collectServer))
	s.reg.Register(s.estStages)
	s.reg.Register(s.patterns)
	if cfg.ShadowSample > 0 {
		// Started here rather than in Start so Handler()-mounted servers
		// (tests, embedders) get shadow execution too; Shutdown stops the
		// workers.
		s.monitor = accuracy.NewMonitor(accuracy.MonitorConfig{
			SampleEvery: cfg.ShadowSample,
			Budget:      cfg.ShadowBudget,
			Patterns:    s.patterns,
		})
		s.reg.Register(s.monitor)
	}
	if db != nil {
		for _, c := range db.Collectors() {
			s.reg.Register(c)
		}
	}
	if cfg.FollowURL != "" && (db == nil || !db.Durable()) {
		return nil, errors.New("server: FollowURL requires a durable database (the follower applies the leader's WAL into its own)")
	}
	if db != nil && db.Durable() {
		s.streamer = replica.NewStreamer(db.DurableBackend(), replica.StreamerOptions{
			WriteTimeout: cfg.WriteTimeout,
			Logger:       cfg.Logger,
		})
		s.reg.Register(s.streamer)
	}
	if cfg.FollowURL != "" {
		s.follower = replica.NewFollower(
			&replica.HTTPTransport{Base: cfg.FollowURL},
			db.DurableBackend(),
			replica.FollowerOptions{
				Upstream:        cfg.FollowURL,
				StalenessBudget: cfg.StalenessBudget,
				Logger:          cfg.Logger,
			})
		s.reg.Register(s.follower)
		ctx, cancel := context.WithCancel(context.Background())
		s.followCancel = cancel
		s.followDone = make(chan struct{})
		go func() {
			defer close(s.followDone)
			s.follower.Run(ctx)
		}()
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/estimate", s.instrument("estimate", http.MethodPost, cfg.MaxBodyBytes, s.handleEstimate))
	s.mux.Handle("/append", s.instrument("append", http.MethodPost, cfg.MaxBodyBytes, s.handleAppend))
	s.mux.Handle("/append-stream", s.instrument("append-stream", http.MethodPost, maxStreamBytes, s.handleAppendStream))
	s.mux.Handle("/compact", s.instrument("compact", http.MethodPost, cfg.MaxBodyBytes, s.handleCompact))
	s.mux.Handle("/shards", s.instrument("shards", http.MethodGet, cfg.MaxBodyBytes, s.handleShards))
	s.mux.Handle("/stats", s.instrument("stats", http.MethodGet, cfg.MaxBodyBytes, s.handleStats))
	s.mux.Handle("/healthz", s.instrument("healthz", http.MethodGet, cfg.MaxBodyBytes, s.handleHealthz))
	s.mux.Handle("/metrics", s.instrument("metrics", http.MethodGet, cfg.MaxBodyBytes, s.handleMetrics))
	if s.streamer != nil {
		s.mux.Handle(replica.StreamPath, s.instrument("wal-stream", http.MethodGet, cfg.MaxBodyBytes, s.streamer.ServeHTTP))
	}
	return s, nil
}

// collectServer exports the server's own families: build identity, Go
// runtime stats, drain state, the background-loop counters, and the
// serving set's shape from one pinned snapshot — shards, version,
// corpus and summary size, grid and read-only flag — so a daemon
// serving a loaded summary reports them too.
func (s *Server) collectServer(e *metrics.Expo) {
	bi := version.Get()
	e.Gauge("xqest_build_info", "Build identity (value is always 1; identity is in the labels).", 1,
		"version", bi.Version, "revision", bi.Revision, "go_version", bi.GoVersion)
	metrics.CollectGoRuntime(e)
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	e.Gauge("xqest_draining", "1 while graceful shutdown drains in-flight requests.", draining)
	e.Counter("xqest_appended_docs_total", "Documents accepted via /append and /append-stream.", float64(s.appendsSeen.Load()))
	e.Counter("xqest_autocompact_rounds_total", "Auto-compaction rounds run.", float64(s.autoRounds.Load()))
	e.Counter("xqest_autocompact_merged_total", "Shards merged away by auto-compaction.", float64(s.autoMerges.Load()))
	e.Counter("xqest_checkpoint_rounds_total", "Background checkpoint rounds run.", float64(s.cpRounds.Load()))

	snap := s.est.Snapshot()
	st := snap.Stats()
	e.Gauge("xqest_shards", "Shards in the serving set.", float64(st.Shards))
	e.Gauge("xqest_set_version", "Serving-set version.", float64(st.Version))
	e.Gauge("xqest_summary_only_shards", "Serving shards holding only a prebuilt summary (no documents to count exactly).", float64(st.SummaryOnlyShards))
	e.Gauge("xqest_corpus_docs", "Documents in the serving set.", float64(st.Docs))
	e.Gauge("xqest_corpus_nodes", "Nodes in the serving set.", float64(st.Nodes))
	e.Gauge("xqest_corpus_predicates", "Registered predicates (the first document-backed shard's catalog).", float64(st.Predicates))
	e.Gauge("xqest_summary_bytes", "Compact encoding size of the serving set's summaries.", float64(snap.StorageBytes()))
	// A loaded estimator carries zero options (its grid lives inside
	// the summary blob), so the default is the best available answer.
	grid := snap.Options().GridSize
	if grid == 0 {
		grid = xmlest.DefaultOptions.GridSize
	}
	e.Gauge("xqest_grid_size", "Position-histogram grid size of the served estimator.", float64(grid))
	readOnly := 0.0
	if s.ReadOnly() {
		readOnly = 1
	}
	e.Gauge("xqest_read_only", "1 when the daemon serves a loaded summary and refuses mutations.", readOnly)
}

// Handler returns the daemon's routed handler, for mounting on an
// external listener (tests use httptest.NewServer(s.Handler())). The
// auto-compaction loop only runs under Start.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the per-endpoint instrumentation registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ReadOnly reports whether the server has no database to mutate.
func (s *Server) ReadOnly() bool { return s.db == nil }

// Start listens on cfg.Addr, begins serving in a background goroutine,
// and starts the auto-compaction loop when configured. It returns the
// bound address (useful with ":0").
func (s *Server) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.listener = ln
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		MaxHeaderBytes:    s.cfg.MaxHeaderBytes,
	}
	needCompact := s.cfg.AutoCompactInterval > 0 && s.db != nil
	needCheckpoint := s.cfg.CheckpointInterval > 0 && s.db != nil && s.db.Durable()
	if needCompact || needCheckpoint {
		ctx, cancel := context.WithCancel(context.Background())
		s.loopCancel = cancel
		s.loopDone = make(chan struct{})
		go func() {
			defer close(s.loopDone)
			var wg sync.WaitGroup
			if needCompact {
				wg.Add(1)
				go func() { defer wg.Done(); s.autoCompactLoop(ctx) }()
			}
			if needCheckpoint {
				wg.Add(1)
				go func() { defer wg.Done(); s.checkpointLoop(ctx) }()
			}
			wg.Wait()
		}()
	}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("serve failed", "err", err)
		}
	}()
	s.log.Info("serving",
		"addr", "http://"+ln.Addr().String(),
		"shards", s.est.ShardCount(),
		"version", s.est.Version(),
		"read_only", s.ReadOnly(),
		"build", version.String())
	return ln.Addr(), nil
}

// Shutdown gracefully stops a Started server: new /healthz probes turn
// 503, the auto-compaction loop stops, every in-flight request
// completes (bounded by ctx), and the summary is persisted to
// cfg.SnapshotPath when set.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.followCancel != nil {
		// Stop replicating first: the loop's open stream closes and no
		// apply can race the database Close below.
		s.followCancel()
		<-s.followDone
	}
	var errs []error
	if s.loopCancel != nil {
		s.loopCancel()
		// A mid-merge compaction round cannot be cancelled; wait for it
		// only within the drain budget. An abandoned round is harmless —
		// its install either lands atomically or is thrown away with the
		// process.
		select {
		case <-s.loopDone:
		case <-ctx.Done():
			errs = append(errs, fmt.Errorf("server: auto-compact round still running at drain deadline: %w", ctx.Err()))
		}
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server: drain: %w", err))
		}
	}
	// After the drain no handler can submit new shadow jobs; queued ones
	// are abandoned (Close never waits on executions beyond their
	// budget).
	s.monitor.Close()
	if s.cfg.SnapshotPath != "" {
		blob, err := s.est.MarshalBinary()
		if err != nil {
			errs = append(errs, fmt.Errorf("server: snapshot: %w", err))
		} else if err := os.WriteFile(s.cfg.SnapshotPath, blob, 0o644); err != nil {
			errs = append(errs, fmt.Errorf("server: snapshot: %w", err))
		} else {
			s.log.Info("persisted summary snapshot",
				"path", s.cfg.SnapshotPath, "bytes", len(blob), "version", s.est.Version())
		}
	}
	// The final gather, taken before Close seals the durable layer.
	final := s.reg.Gather()
	if s.db != nil && s.db.Durable() {
		// Graceful shutdown of a durable daemon is a checkpoint, not a
		// one-shot snapshot: the data directory ends fully checkpointed
		// with an empty WAL, and the next boot replays nothing.
		if err := s.db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: final checkpoint: %w", err))
		} else if ds, ok := s.db.DurabilityStats(); ok {
			s.log.Info("final checkpoint",
				"dir", ds.Dir, "version", ds.CheckpointVersion, "wal_seq", ds.CheckpointWALSeq)
		}
	}
	s.logFinalStats(final)
	return errors.Join(errs...)
}

// logFinalStats logs the shutdown gather: lifetime traffic per
// endpoint plus the durable layer's group-commit and WAL watermarks,
// so a drained daemon leaves a structured record of what it served.
func (s *Server) logFinalStats(fams metrics.Families) {
	uptime := s.reg.Uptime()
	if req := fams.Find("xqest_http_requests_total"); req != nil {
		for _, smp := range req.Samples {
			if smp.Value == 0 {
				continue
			}
			ep := smp.Label("endpoint")
			errs, _ := fams.Value("xqest_http_errors_total", "endpoint", ep)
			rejected, _ := fams.Value("xqest_http_rejected_total", "endpoint", ep)
			s.log.Info("endpoint totals",
				"endpoint", ep,
				"requests", smp.Value,
				"errors", errs,
				"rejected", rejected,
				"qps", smp.Value/uptime.Seconds(),
				"p50_s", fams.Quantile("xqest_http_request_duration_seconds", 0.5, "endpoint", ep),
				"p99_s", fams.Quantile("xqest_http_request_duration_seconds", 0.99, "endpoint", ep))
		}
	}
	attrs := []any{"uptime", uptime.String()}
	for _, a := range []struct{ key, sample string }{
		{"appended_docs", "xqest_appended_docs_total"},
		{"untracked_patterns", "xqest_pattern_untracked_requests_total"},
		{"wal_seq", "xqest_wal_last_seq"},
		{"durable_seq", "xqest_wal_durable_seq"},
		{"commit_groups", "xqest_group_commit_group_size_count"},
		{"commit_batches", "xqest_group_commit_group_size_sum"},
		{"checkpoints", "xqest_checkpoints_total"},
	} {
		if v, ok := fams.Value(a.sample); ok {
			attrs = append(attrs, a.key, v)
		}
	}
	s.log.Info("shutdown stats", attrs...)
}

// autoCompactLoop runs compaction rounds per interval until cancelled.
// Each tick drains: rounds run back-to-back while they find shards to
// merge, so coalesced ingest (which installs on the order of a
// hundred shards per second) cannot outrun the once-per-tick cadence
// and balloon the serving set — unbounded shard counts make every
// estimate's fan-out and every rebind slower. Rounds rebuild entirely
// off the serving path, but they still compete for CPU with it, so
// the drain is bounded by a time budget (a quarter of the tick
// interval): when ingest outruns even that much merging, the set is
// allowed to grow until traffic lets compaction catch up — degraded
// estimates beat starved ones. A round that finds nothing is free, so
// draining costs nothing once the set is tidy.
func (s *Server) autoCompactLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.AutoCompactInterval)
	defer t.Stop()
	budget := s.cfg.AutoCompactInterval / 4
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			deadline := time.Now().Add(budget)
			for s.compactOnce() > 0 && ctx.Err() == nil && time.Now().Before(deadline) {
			}
		}
	}
}

// checkpointLoop persists the serving set per interval until
// cancelled, so the WAL stays short and recovery fast. Checkpoints
// run concurrently with appends and estimates; a batch landing
// mid-round simply stays in the WAL for the next one.
//
// A failed round — disk full, I/O error — does not kill the loop: it
// retries with capped exponential backoff (interval × 2^failures, up
// to min(interval×32, 5m)), so a transient fault costs a few delayed
// checkpoints and a persistent one does not hammer a sick disk. The
// failure count is visible as the "checkpoint" endpoint's
// xqest_http_errors_total and as xqest_checkpoint_failures_total.
func (s *Server) checkpointLoop(ctx context.Context) {
	interval := s.cfg.CheckpointInterval
	maxDelay := interval * maxCheckpointBackoffMult
	if maxDelay > maxCheckpointBackoff {
		maxDelay = maxCheckpointBackoff
	}
	if maxDelay < interval {
		maxDelay = interval
	}
	delay := interval
	t := time.NewTimer(delay)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := s.checkpointOnce(); err != nil {
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
			s.log.Warn("checkpoint failed, backing off",
				"failures", s.cpFailures.Load(), "retry_in", delay.String(), "err", err)
		} else {
			delay = interval
		}
		t.Reset(delay)
	}
}

// timeRound runs one background round, recording it on the named
// endpoint as a request that fails when round returns an error.
func (s *Server) timeRound(name string, round func() error) error {
	ep := s.reg.Endpoint(name)
	ep.Begin()
	start := time.Now()
	err := round()
	ep.End(time.Since(start), metrics.OutcomeOf(err != nil))
	return err
}

// checkpointOnce runs one instrumented checkpoint round.
func (s *Server) checkpointOnce() error {
	err := s.timeRound("checkpoint", func() error {
		_, err := s.db.Checkpoint()
		return err
	})
	s.cpRounds.Add(1)
	if err != nil {
		s.cpFailures.Add(1)
	}
	s.noteDegraded()
	return err
}

// noteDegraded logs degraded-state transitions exactly once per edge:
// Warn when a component fails, Info when it recovers. Safe to call
// from any goroutine that just observed the durable layer.
func (s *Server) noteDegraded() {
	if s.db == nil {
		return
	}
	comp, reason, bad := s.db.Degraded()
	if !bad {
		comp = ""
	}
	if *s.lastDegraded.Load() == comp {
		return
	}
	prev := *s.lastDegraded.Swap(&comp)
	if prev == comp {
		return // another goroutine logged this transition
	}
	if comp != "" {
		s.log.Warn("storage degraded", "component", comp, "reason", reason)
	} else {
		s.log.Info("storage recovered", "component", prev)
	}
}

// compactOnce runs one instrumented auto-compaction round and returns
// how many shards it merged away (0 when nothing qualified or the
// round failed).
func (s *Server) compactOnce() int {
	var merged int
	err := s.timeRound("autocompact", func() (err error) {
		merged, err = s.db.Compact(s.cfg.CompactionPolicy)
		return err
	})
	s.autoRounds.Add(1)
	if err != nil {
		s.log.Error("auto-compact failed", "err", err)
		return 0
	}
	if merged > 0 {
		s.autoMerges.Add(uint64(merged))
		s.log.Info("auto-compact merged shards",
			"merged", merged, "remaining", s.est.ShardCount(), "version", s.est.Version())
	}
	return merged
}

// statusRecorder captures the response status for instrumentation and
// whether anything was written (so panic recovery knows if a 500 can
// still be sent).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// Flush and Unwrap let the streaming /wal/stream handler work through
// the instrumentation wrapper: Flush forwards chunked writes, Unwrap
// lets http.ResponseController reach the real writer's per-write
// deadline controls.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// requestIDKey is trace.RequestIDHeader in canonical form, so instrument
// can read and write it by direct map access: Header.Get and Set
// canonicalize their key on every call.
var requestIDKey = http.CanonicalHeaderKey(trace.RequestIDHeader)

// instrument enforces the HTTP method, bounds the request body to
// bodyLimit bytes, and records latency, request, error and rejection
// counts per endpoint.
// Deliberate 503s — append backpressure, healthz while draining — are
// rejections, not errors: a saturated-but-healthy daemon must not read
// as error-ridden in xqest_http_errors_total.
//
// Every request gets a request ID — the client's X-Request-ID when
// sent, a generated one otherwise — echoed on the response and
// attached to request-scoped log lines, so one slow or failed request
// can be followed from client to server log. 1 in cfg.TraceSample
// requests additionally carries a pipeline Trace in its context; the
// handler's stage steps feed the /metrics stage histograms and the
// slow-request log's breakdown.
//
// It also recovers handler panics: the request gets a 500 (when the
// response has not started), the endpoint's panic counter increments,
// and the stack is logged — one poisoned request must not kill a
// daemon serving thousands of healthy ones.
func (s *Server) instrument(name, method string, bodyLimit int64, h http.HandlerFunc) http.Handler {
	ep := s.reg.Endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var reqID string
		if v := r.Header[requestIDKey]; len(v) > 0 {
			reqID = v[0]
		}
		if reqID == "" {
			reqID = trace.NewRequestID()
		}
		w.Header()[requestIDKey] = []string{reqID}
		start := time.Now()
		t := s.tracer.Start()
		if t != nil {
			r = r.WithContext(trace.NewContext(r.Context(), t))
		}
		ep.Begin()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				ep.RecordPanic()
				s.log.Error("panic in handler",
					"method", method, "path", r.URL.Path, "request_id", reqID,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				rec.status = http.StatusInternalServerError
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
			}
			outcome := metrics.OK
			switch {
			case rec.status == http.StatusServiceUnavailable:
				outcome = metrics.Rejected
			case rec.status >= 400:
				outcome = metrics.Error
			}
			// One clock pair per request: the latency histogram and the
			// slow log read the same duration.
			d := time.Since(start)
			ep.End(d, outcome)
			s.tracer.Finish(t, name, reqID, d, rec.status)
		}()
		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeError(rec, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
			return
		}
		r.Body = http.MaxBytesReader(rec, r.Body, bodyLimit)
		h(rec, r)
	})
}
