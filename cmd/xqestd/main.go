// Command xqestd is the estimation daemon: it loads an XML corpus (or
// a saved summary), builds position-histogram summaries, and serves
// answer-size estimates over HTTP while accepting document ingest and
// compacting shards in the background.
//
//	xqestd -dataset dblp -scale 0.1 -addr :8080
//	xqestd -data a.xml,b.xml -autocompact 30s -save snapshot.xqs
//	xqestd -load snapshot.xqs -addr :8080          # read-only serving
//
// Durable serving: with -data-dir the daemon becomes a database —
// every /append is written to a write-ahead log (fsynced per -fsync)
// before it is acknowledged, checkpoints persist shard summaries and
// truncate the log, and a restart (even after kill -9) recovers every
// acknowledged batch with bit-identical estimates. Concurrent appends
// share one WAL write and fsync (group commit; /stats and /metrics
// report it as the xqest_group_commit_group_size histogram):
//
//	xqestd -dataset dblp -data-dir /var/lib/xqest -fsync always -checkpoint 1m
//	xqestd -data-dir /var/lib/xqest                # recover and keep serving
//
// Replicated serving: a follower streams the leader's WAL over HTTP
// (GET /wal/stream), applies every record into its own data directory
// before serving it, and answers estimates bit-identically to the
// leader at the same version. Start it with the same bootstrap flags
// as the leader so both share the version-1 base state:
//
//	xqestd -dataset dblp -data-dir /var/lib/xq-leader -addr :8080
//	xqestd -dataset dblp -data-dir /var/lib/xq-f1 -follow http://leader:8080 -addr :8081
//
// Endpoints: POST /estimate /append /compact, GET /shards /healthz,
// and GET /stats and /metrics, the same metric families as JSON and as
// Prometheus text — see internal/server. SIGINT/SIGTERM shut down
// gracefully: in-flight requests drain and, with -save, the summary is
// persisted for the next boot; with -data-dir, shutdown is a final
// checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xmlest"
	"xmlest/internal/cliutil"
	"xmlest/internal/server"
	"xmlest/internal/version"
)

// newLogger builds the daemon's structured logger from the -log-level
// and -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "", "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("xqestd: unknown -log-level %q (debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("xqestd: unknown -log-format %q (text, json)", format)
	}
}

func main() {
	addr := flag.String("addr", server.DefaultAddr, "listen address")
	pprofAddr := flag.String("pprof-addr", "", "opt-in net/http/pprof debug listener (e.g. 127.0.0.1:6060); keep it off public interfaces")
	data := flag.String("data", "", "comma-separated XML files (one shard)")
	dataset := flag.String("dataset", "", "built-in dataset: dblp, hier, xmark, shakespeare")
	scale := flag.Float64("scale", 0.1, "built-in dataset scale")
	seed := flag.Int64("seed", 2002, "built-in dataset seed")
	grid := flag.Int("grid", 10, "histogram grid size g (gxg buckets)")
	workers := flag.Int("build-workers", 0, "summary build workers (0 = GOMAXPROCS)")
	load := flag.String("load", "", "serve read-only from a saved XQS2 summary instead of data")
	save := flag.String("save", "", "persist the summary snapshot here on shutdown")
	autocompact := flag.Duration("autocompact", 0, "background compaction interval (0 disables)")
	maxShards := flag.Int("max-shards", 0, "compaction policy shard-count target (0 = default)")
	maxAppends := flag.Int("max-inflight-appends", 0, "ingest backpressure bound (0 = default)")
	drain := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown drain budget")
	dataDir := flag.String("data-dir", "", "durable data directory: WAL + checkpoints; appends survive crashes")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always, interval or off")
	fsyncInterval := flag.Duration("fsync-interval", 0, "fsync cadence for -fsync interval (default 100ms)")
	checkpoint := flag.Duration("checkpoint", 0, "background checkpoint interval with -data-dir (0 = shutdown only)")
	follow := flag.String("follow", "", "run as a read-only follower replicating the leader at this base URL (requires -data-dir; start with the same -dataset/-data/-grid bootstrap as the leader)")
	staleness := flag.Duration("staleness", 0, "follower staleness budget: leader silence beyond this marks /healthz degraded (0 = default 30s)")
	readTimeout := flag.Duration("read-timeout", 0, "HTTP read timeout: full request including body (0 = default)")
	writeTimeout := flag.Duration("write-timeout", 0, "HTTP write timeout: handler + response (0 = default)")
	idleTimeout := flag.Duration("idle-timeout", 0, "HTTP keep-alive idle connection timeout (0 = default)")
	maxHeaderBytes := flag.Int("max-header-bytes", 0, "HTTP request header size cap (0 = default)")
	fault := flag.String("fault", "", "TESTING ONLY: disk-fault schedule for -data-dir, e.g. 'sync-fail-after=3' or 'fail-op=12,torn' (see internal/fsio)")
	traceSample := flag.Int("trace-sample", 64, "sample 1 in N requests for pipeline stage tracing (0 disables)")
	slowRequest := flag.Duration("slow-request", time.Second, "log requests slower than this threshold (0 disables)")
	shadowSample := flag.Int("shadow-sample", 128, "shadow-execute 1 in N estimates exactly for online accuracy monitoring (0 disables)")
	shadowBudget := flag.Duration("shadow-budget", 0, "wall-clock budget per shadow execution (0 = default 200ms)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	showVersion := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("xqestd " + version.String())
		return
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	if *fault != "" && *dataDir == "" {
		fatal(fmt.Errorf("xqestd: -fault injects storage faults and requires -data-dir"))
	}
	if *follow != "" && *dataDir == "" {
		fatal(fmt.Errorf("xqestd: -follow applies the leader's WAL into a local data directory and requires -data-dir"))
	}
	if *staleness < 0 {
		fatal(fmt.Errorf("xqestd: -staleness must be positive"))
	}

	cfg := server.Config{
		Addr: *addr,
		Options: xmlest.Options{
			GridSize:     *grid,
			BuildWorkers: *workers,
		},
		MaxInflightAppends:  *maxAppends,
		AutoCompactInterval: *autocompact,
		CheckpointInterval:  *checkpoint,
		CompactionPolicy:    xmlest.CompactionPolicy{MaxShards: *maxShards},
		SnapshotPath:        *save,
		ReadTimeout:         *readTimeout,
		WriteTimeout:        *writeTimeout,
		IdleTimeout:         *idleTimeout,
		MaxHeaderBytes:      *maxHeaderBytes,
		TraceSample:         *traceSample,
		SlowRequest:         *slowRequest,
		ShadowSample:        *shadowSample,
		ShadowBudget:        *shadowBudget,
		FollowURL:           *follow,
		StalenessBudget:     *staleness,
		Logger:              logger,
	}

	var srv *server.Server
	switch {
	case *load != "":
		if *dataDir != "" {
			fatal(fmt.Errorf("xqestd: -load serves read-only; it cannot be combined with -data-dir"))
		}
		var blob []byte
		blob, err = os.ReadFile(*load)
		if err != nil {
			fatal(err)
		}
		var est *xmlest.Estimator
		est, err = xmlest.LoadEstimator(blob)
		if err != nil {
			fatal(err)
		}
		srv, err = server.NewFromEstimator(est, cfg)
	case *dataDir != "":
		if *fault != "" {
			logger.Warn("FAULT INJECTION ACTIVE: storage runs on a fault-injecting filesystem", "fault", *fault)
		}
		var db *xmlest.Database
		db, err = cliutil.OpenDurableDatabase(*dataDir, cfg.Options, cliutil.DurableFlags{
			Fsync:         *fsync,
			FsyncInterval: *fsyncInterval,
			Data:          *data,
			Dataset:       *dataset,
			Scale:         *scale,
			Seed:          *seed,
			FaultSpec:     *fault,
		})
		if err != nil {
			fatal(fmt.Errorf("xqestd: %w", err))
		}
		if rec, ok := db.Recovery(); ok {
			logger.Info("recovered data directory",
				"dir", *dataDir,
				"fsync", *fsync,
				"checkpoint_shards", rec.CheckpointShards,
				"checkpoint_version", rec.CheckpointVersion,
				"replayed_records", rec.ReplayedRecords,
				"replayed_docs", rec.ReplayedDocs,
				"skipped_records", rec.SkippedRecords)
		}
		srv, err = server.New(db, cfg)
	default:
		var db *xmlest.Database
		db, err = cliutil.OpenDatabase(*data, *dataset, *scale, *seed)
		if err != nil {
			fatal(fmt.Errorf("xqestd: %w", err))
		}
		srv, err = server.New(db, cfg)
	}
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		// Opt-in profiling listener, deliberately separate from the
		// serving mux so profiles are never exposed on the service
		// address. See README, "Profiling the daemon".
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof debug listener", "addr", "http://"+*pprofAddr+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	if err := runUntilSignal(srv, *drain); err != nil {
		fatal(err)
	}
}

// runUntilSignal starts the daemon, blocks until SIGINT or SIGTERM,
// then shuts it down gracefully within the drain budget.
func runUntilSignal(srv *server.Server, drain time.Duration) error {
	if _, err := srv.Start(); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "received %s: draining and shutting down\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(ctx)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
