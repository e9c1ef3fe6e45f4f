package main

import (
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/predicate"
	"xmlest/internal/server"
	"xmlest/internal/xmltree"
)

// readSpec shapes a read-only workload.
type readSpec struct {
	corpus func(seed int64) (*corpus, error)
	// twigs is how many distinct twigs the requests cycle through and
	// batch how many patterns one request carries.
	twigs, batch int
	// cold marks a twig pool larger than the facade's compiled-query
	// cache, so every pattern of every request is parsed, prepared and
	// folded again; the ladder then times that cold path.
	cold bool
}

var (
	// read-hot: 16 single-pattern twigs over the DBLP corpus; every
	// request hits the compiled-query cache.
	readHotSpec = readSpec{corpus: dblpCorpus, twigs: 16, batch: 1}
	// read-wide: batches of 16 drawn from 4096 twigs over the recursive
	// corpus; 4096 is 16 times the 256-entry compiled-query and join
	// caches. A pool that large also keeps the mix of cheap and costly
	// twigs, and so the per-request cost, nearly the same for every seed:
	// a 384-twig pool moved the mean cold cost per pattern by ±13%.
	readWideSpec = readSpec{corpus: hierCorpus, twigs: 4096, batch: 16, cold: true}
)

func readHot(cfg runConfig) (*report, error)  { return runRead(cfg, readHotSpec) }
func readWide(cfg runConfig) (*report, error) { return runRead(cfg, readWideSpec) }

// Load shape shared by every workload: a warm-up, then the measured
// seconds cut into windows of windowLen.
const (
	warmup    = time.Second
	windowLen = time.Second
)

func windowsFor(seconds int) (int, time.Duration) {
	return int(time.Duration(seconds) * time.Second / windowLen), windowLen
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// The sampler and the document stream draw from independent seeds.
const (
	twigSeedSalt = 0x7769
	docSeedSalt  = 0x646f63
)

func runRead(cfg runConfig, spec readSpec) (*report, error) {
	rep := newReport()
	c, err := spec.corpus(cfg.seed)
	if err != nil {
		return nil, err
	}
	var s *served
	var coreE *core.Estimator
	setupTr := &tracer{}
	if cfg.trace {
		s, coreE, err = tracedSetup(c, setupTr)
	} else {
		if err := timeSetup(cfg, c.name, false, rep); err != nil {
			return nil, err
		}
		freeMemory() // the corpus generator's garbage is not the server's peak
		s, _, err = setup(c)
	}
	if err != nil {
		return nil, err
	}
	ts, err := loadTwigs(cfg.seed^twigSeedSalt, s.db, spec.twigs)
	if err != nil {
		return nil, err
	}
	calls, batches := estimateCalls(ts.twigs, spec.batch)
	load := &estimateLoad{h: s.srv.Handler(), calls: calls, batches: batches, twigs: ts, rep: rep}
	rep.env["corpus"] = map[string]any{"name": c.name, "docs": len(c.docs), "bytes": c.bytes, "nodes": s.db.Stats().Nodes}
	rep.env["settings"] = map[string]any{
		"twigs": spec.twigs, "batch": spec.batch, "clients": 1, "loop": "closed",
		"grid": serveOptions.GridSize, "trace_sample": 64, "shadow_sample": 0,
	}
	rep.env["twig_examples"] = ts.twigs[:min(4, len(ts.twigs))]

	if cfg.trace {
		return rep, readLayers(cfg, spec, s, coreE, c, load, setupTr, rep)
	}
	load.runFor(warmup)
	n, each := windowsFor(cfg.seconds)
	sum := summarize(load.measure(n, each))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("est_ops_per_s", sum.opsPerSec, "1/s")
	rep.set("est_p50_us", sum.p50us, "us")
	rep.set("est_p99_us", sum.p99us, "us")
	rep.set("cpu_us_per_op", sum.cpuPerOp, "us")
	rep.set("rss_mb", rss, "MB")
	rep.env["samples"] = map[string]any{"est": sum.env(), "setup_s": setupRepeats}
	return rep, runAccuracy(cfg, c.name, rep)
}

// freeMemory collects garbage and returns it to the OS, so that the
// next phase's peak RSS is its own.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// tracedSetup is setup with each set-up layer timed as a span under a
// "setup" root, followed by a standalone core summary build over the
// same catalog (the store builds its own inside server.New); the ladder
// reuses that private summary for its core steps.
func tracedSetup(c *corpus, tr *tracer) (*served, *core.Estimator, error) {
	var (
		tree  *xmltree.Tree
		cat   *predicate.Catalog
		s     = &served{}
		coreE *core.Estimator
		err   error
	)
	root := tr.begin(0, 0, "setup")
	tr.time(0, root, "xmltree.parse", func() { tree, err = c.parse() })
	if err != nil {
		return nil, nil, err
	}
	tr.time(0, root, "predicate.catalog", func() { cat = c.catalog(tree) })
	s.db = xmlest.FromCatalog(cat)
	tr.time(0, root, "server.new", func() { s.srv, err = server.New(s.db, serverConfig(0)) })
	if err != nil {
		return nil, nil, err
	}
	tr.time(0, root, "xmlest.merge", s.db.MergeSummaries)
	tr.end(root)
	tr.time(0, 0, "core.build", func() { coreE, err = core.NewEstimator(cat, serveOptions) })
	return s, coreE, err
}

// setSetupLayers reports the set-up ladder.
func setSetupLayers(rep *report, tr *tracer, corpusBytes int) {
	parse := medianOf(tr.durations("xmltree.parse"), time.Second)
	rep.set("xmltree.parse_mb_per_s", float64(corpusBytes)/1e6/parse, "MB/s")
	rep.set("predicate.catalog_ms", medianOf(tr.durations("predicate.catalog"), time.Millisecond), "ms")
	rep.set("core.build_ms", medianOf(tr.durations("core.build"), time.Millisecond), "ms")
}

// readLayers is the traced run of a read workload: the traced load,
// then the ladder over the workload's own requests.
func readLayers(cfg runConfig, spec readSpec, s *served, coreE *core.Estimator, c *corpus, load *estimateLoad, setupTr *tracer, rep *report) error {
	h := s.srv.Handler()
	tr := &tracer{}
	lt, err := traceLoad(s.db, h, load, cfg.seconds, tr)
	if err != nil {
		return err
	}
	lad, err := newEstimateLadder(s.db, h, load, coreE, spec.cold)
	if err != nil {
		return err
	}
	if err := lad.run(tr, ladderReps(spec.twigs), rep); err != nil {
		return err
	}
	lt.set(rep, spec.batch, 0)
	setSetupLayers(rep, setupTr, c.bytes)
	lad.set(rep, tr)
	setIdleIngestLayers(rep)
	return nil
}

// ladderReps is how many times the ladder walks a workload's inputs:
// enough for several hundred spans per layer.
func ladderReps(twigs int) int { return max(1, 800/twigs) }

// loadTrace is what the traced run's load phase measured.
type loadTrace struct {
	untraced, traced float64 // request rates
	requests         int     // requests between the two scrapes
	before, after    counters
	gcFrac           float64
	shards           shardSampler
}

// traceLoad runs the load after a warm-up for half of seconds untraced
// and half with a client span per request, sampling the serving shard
// count on every traced read; the rate ratio is the tracing overhead.
// /metrics is scraped before and after.
func traceLoad(db *xmlest.Database, h http.Handler, load *estimateLoad, seconds int, tr *tracer) (*loadTrace, error) {
	live, err := db.NewEstimator(serveOptions)
	if err != nil {
		return nil, err
	}
	load.runFor(warmup)
	lt := &loadTrace{}
	if lt.before, err = scrape(h); err != nil {
		return nil, err
	}
	requests0, gc0 := load.next, readGCCPU()
	half := time.Duration(seconds) * time.Second / 2
	lt.untraced = float64(load.runFor(half)) / half.Seconds()
	load.onRequest = func() { lt.shards.observe(live) }
	n := 0
	for end := time.Now().Add(half); time.Now().Before(end); n++ {
		tr.time(-1, 0, "client.estimate", func() { load.one() })
	}
	load.onRequest = nil
	lt.traced = float64(n) / half.Seconds()
	lt.gcFrac = gc0.fracSince()
	lt.requests = load.next - requests0
	if lt.after, err = scrape(h); err != nil {
		return nil, err
	}
	return lt, nil
}

// set reports the load phase's per-layer figures: the counter deltas
// (batch patterns per request, appends acknowledged between the
// scrapes), garbage-collection share and tracing overhead.
func (lt *loadTrace) set(rep *report, batch int, appends float64) {
	setCounterLayers(rep, lt.before, lt.after, float64(lt.requests*batch), appends, lt.shards.mean())
	rep.set("runtime.gc_cpu_frac", lt.gcFrac, "ratio")
	rep.set("bench.trace_overhead", lt.untraced/lt.traced, "ratio")
}

// shardSampler averages the serving set's shard count over reads.
type shardSampler struct{ n, sum float64 }

func (s *shardSampler) observe(est *xmlest.Estimator) {
	s.n++
	s.sum += float64(est.ShardCount())
}

func (s *shardSampler) mean() float64 { return s.sum / max(s.n, 1) }

// setCounterLayers reports the layer counters read off /metrics:
// patterns is the number of patterns estimated and appends the number
// of acknowledged appends between the two scrapes.
func setCounterLayers(rep *report, before, after counters, patterns, appends, shardsMean float64) {
	merged := before.delta(after, "xqest_prepare_merged_total")
	fanout := before.delta(after, "xqest_prepare_fanout_total")
	rep.set("xmlest.compile_hit_ratio", 1-(merged+fanout)/max(patterns, 1), "ratio")
	share := 0.0
	if merged+fanout > 0 {
		share = merged / (merged + fanout)
	}
	rep.set("shard.merged_share", share, "ratio")
	rep.set("shard.serving_shards_mean", shardsMean, "count")
	rep.set("shard.folds", before.delta(after, "xqest_merged_folds_total"), "count")
	rep.set("shard.compactions", before.delta(after, "xqest_autocompact_merged_total"), "count")
	rep.set("wal.fsyncs_per_append", before.delta(after, "xqest_wal_fsyncs_total")/max(appends, 1), "ratio")
	rep.env["counter_deltas"] = map[string]float64{
		"prepare_merged": merged, "prepare_fanout": fanout, "patterns": patterns, "appends": appends,
		"wal_fsyncs": before.delta(after, "xqest_wal_fsyncs_total"),
	}
}

// setIdleIngestLayers reports the write-path layers as zero on a read
// workload: nothing is appended, logged, folded, compacted or
// recovered there.
func setIdleIngestLayers(rep *report) {
	for _, m := range []struct{ name, unit string }{
		{"server.append_self_us", "us"}, {"xmlest.append_us", "us"}, {"xmltree.doc_parse_us", "us"},
		{"wal.append_us", "us"}, {"wal.bytes_per_user_byte", "ratio"}, {"wal.scan_ms", "ms"},
		{"shard.fold_ms", "ms"}, {"shard.compact_ms", "ms"}, {"shard.recovered_shards", "count"},
		{"append_p50_ms", "ms"}, {"append_p99_ms", "ms"}, {"recovery_s", "s"}, {"bench.gen_late_p99_ms", "ms"},
	} {
		rep.set(m.name, 0, m.unit)
	}
}
