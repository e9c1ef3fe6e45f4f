package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmlest"
	"xmlest/internal/core"
	"xmlest/internal/predicate"
	"xmlest/internal/server"
	"xmlest/internal/shard"
	"xmlest/internal/wal"
	"xmlest/internal/xmltree"
)

// servingChild is the ingest-mixed serving process. It sets up the
// durable database, runs the load, prints its result and then keeps
// appending until the parent kills it.
func servingChild(args []string) error {
	f, err := parseChildFlags(servingRole, args)
	if err != nil {
		return err
	}
	seed, seconds, trace, dir := f.seed, f.seconds, f.trace, f.dir
	c, err := dblpCorpus(seed)
	if err != nil {
		return err
	}
	rep := newReport()
	var s *served
	var coreE *core.Estimator
	setupTr := &tracer{}
	if trace {
		s, coreE, err = tracedServing(c, dir, setupTr)
	} else {
		freeMemory() // the corpus generator's garbage is not the server's peak
		s, _, err = openServing(c, dir)
	}
	if err != nil {
		return err
	}
	// The auto-compaction loop runs only under Start; the load still
	// goes through Handler() in-process.
	if _, err := s.srv.Start(); err != nil {
		return err
	}
	ts, err := loadTwigs(seed^twigSeedSalt, s.db, ingestTwigs)
	if err != nil {
		return err
	}
	ts.expected = nil // the database changes under the load
	h := s.srv.Handler()
	in := &ingestServer{
		seed: seed, dir: dir, s: s, h: h,
		out:    &lineWriter{w: os.Stdout},
		gen:    openLoop{every: time.Second / appendRate, clk: wallClock{}},
		appRep: newReport(),
	}
	calls, batches := estimateCalls(ts.twigs, 1)
	load := &estimateLoad{h: h, calls: calls, batches: batches, twigs: ts, rep: rep, others: in.done.Load}
	rep.env["corpus"] = map[string]any{"name": c.name, "docs": len(c.docs), "bytes": c.bytes, "nodes": s.db.Stats().Nodes}
	rep.env["settings"] = map[string]any{
		"twigs": ingestTwigs, "batch": 1, "readers": 1, "read_loop": "closed",
		"append_rate_per_s": appendRate, "append_loop": "open", "fsync": "always",
		"autocompact": autoCompact.String(), "checkpoint": "off", "grid": serveOptions.GridSize,
		"trace_sample": 64, "shadow_sample": 0,
	}
	rep.env["twig_examples"] = ts.twigs[:min(4, len(ts.twigs))]

	in.start()
	if trace {
		err = in.layers(seconds, load, coreE, setupTr, c, rep)
	} else {
		err = in.endToEnd(seconds, load, rep)
	}
	if err != nil {
		return err
	}
	in.mu.Lock()
	rep.attempted += in.appRep.attempted
	rep.failed += in.appRep.failed
	rep.problems = append(rep.problems, in.appRep.problems...)
	in.mu.Unlock()
	if err := writeResult(os.Stdout, rep); err != nil {
		return err
	}
	// Keep reading and appending until SIGKILL: the crash lands mid-load.
	for {
		load.one()
	}
}

// tracedServing is openServing with the bootstrap's layers as spans.
func tracedServing(c *corpus, dir string, tr *tracer) (*served, *core.Estimator, error) {
	var cat *predicate.Catalog
	cfg := durableConfig(c)
	root := tr.begin(0, 0, "setup")
	cfg.Bootstrap = func() (*xmlest.Database, error) {
		var tree *xmltree.Tree
		var err error
		tr.time(0, root, "xmltree.parse", func() { tree, err = c.parse() })
		if err != nil {
			return nil, err
		}
		tr.time(0, root, "predicate.catalog", func() { cat = c.catalog(tree) })
		return xmlest.FromCatalog(cat), nil
	}
	db, err := xmlest.OpenDurable(dir, cfg)
	if err != nil {
		return nil, nil, err
	}
	s := &served{db: db}
	tr.time(0, root, "server.new", func() { s.srv, err = server.New(db, serverConfig(autoCompact)) })
	if err != nil {
		return nil, nil, err
	}
	tr.time(0, root, "xmlest.merge", db.MergeSummaries)
	tr.end(root)
	var coreE *core.Estimator
	tr.time(0, 0, "core.build", func() { coreE, err = core.NewEstimator(cat, serveOptions) })
	return s, coreE, err
}

// start launches the append generator.
func (in *ingestServer) start() {
	in.stop.Store(false)
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		in.generate()
	}()
}

// halt stops the append generator and waits for it.
func (in *ingestServer) halt() {
	in.stop.Store(true)
	in.wg.Wait()
}

// endToEnd measures the untraced run.
func (in *ingestServer) endToEnd(seconds int, load *estimateLoad, rep *report) error {
	load.runFor(warmup)
	mark := in.gen.mark()
	n, each := windowsFor(seconds)
	sum := summarize(load.measure(n, each))
	late, latency := in.gen.since(mark)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("est_ops_per_s", sum.opsPerSec, "1/s")
	rep.set("est_p50_us", sum.p50us, "us")
	rep.set("est_p99_us", sum.p99us, "us")
	rep.set("cpu_us_per_op", sum.cpuPerOp, "us")
	rep.set("rss_mb", rss, "MB")
	rep.env["samples"] = map[string]any{"est": sum.env(), "setup_s": setupRepeats}
	rep.env["appends"] = appendSummary(late, latency, in.gen.every)
	return nil
}

// appendSummary describes the open-loop appends for the environment
// block, flagging a generator that could not keep its schedule.
func appendSummary(late, latency []float64, every time.Duration) map[string]any {
	p50, _ := percentile(latency, 0.50)
	p99, ok := percentile(latency, 0.99)
	lateP99, _ := percentile(late, 0.99)
	return map[string]any{
		"samples":          len(latency),
		"latency_p50_ms":   p50,
		"latency_p99_ms":   p99,
		"p99_tail_ok":      ok,
		"gen_late_p99_ms":  lateP99,
		"generator_behind": lateP99 > ms(every),
	}
}

// layers is the traced run: the traced load, then the estimate and
// append ladders.
func (in *ingestServer) layers(seconds int, load *estimateLoad, coreE *core.Estimator, setupTr *tracer, c *corpus, rep *report) error {
	mark, appends0 := in.gen.mark(), in.done.Load()
	tr := &tracer{}
	lt, err := traceLoad(in.s.db, in.h, load, seconds, tr)
	if err != nil {
		return err
	}
	appends := float64(in.done.Load() - appends0)
	late, latency := in.gen.since(mark)
	in.halt()

	lad, err := newEstimateLadder(in.s.db, in.h, load, coreE, false)
	if err != nil {
		return err
	}
	if err := lad.run(tr, ladderReps(ingestTwigs), rep); err != nil {
		return err
	}
	if err := in.appendLadder(tr); err != nil {
		return err
	}
	lt.set(rep, 1, appends)
	setSetupLayers(rep, setupTr, c.bytes)
	lad.set(rep, tr)
	in.setAppendLayers(rep, tr)
	p50, _ := percentile(latency, 0.50)
	p99, _ := percentile(latency, 0.99)
	lateP99, _ := percentile(late, 0.99)
	rep.set("append_p50_ms", p50, "ms")
	rep.set("append_p99_ms", p99, "ms")
	rep.set("bench.gen_late_p99_ms", lateP99, "ms")
	rep.env["appends"] = appendSummary(late, latency, in.gen.every)
	ds, _ := in.s.db.DurabilityStats()
	in.mu.Lock()
	rep.set("wal.bytes_per_user_byte", float64(ds.WALBytes)/float64(max(in.userBytes, 1)), "ratio")
	in.mu.Unlock()
	in.start() // the crash load
	return nil
}

// appendLadder times appended documents at each write-path entry point:
// the server handler, the facade append (with the document parse and a
// WAL append on a scratch log, fsync always, as its children), then a
// fold of the serving set's summaries and, every fourth document, one
// compaction round.
func (in *ingestServer) appendLadder(tr *tracer) error {
	scratch, err := wal.Open(in.dir+"-scratch-wal", wal.Options{Mode: wal.ModeAlways})
	if err != nil {
		return err
	}
	defer scratch.Close()
	for i := 0; i < appendLadderDocs; i++ {
		k := in.nextDoc.Add(1) - 1
		doc := ingestDoc(in.seed, k)
		c := newCall(http.MethodPost, "/append", "application/xml", doc)
		var status int
		var body []byte
		top := tr.time(i, 0, "server.append", func() { status, body = c.do(in.h) })
		seq, ver, err := checkAppend(status, body)
		in.acked(k, seq, ver, len(doc), err)
		var info xmlest.ShardInfo
		mid := tr.time(i, top, "xmlest.append", func() { info, err = in.s.db.Append(bytes.NewReader(doc)) })
		in.acked(k, info.WALSeq, info.Version, len(doc), err)
		tr.time(i, mid, "xmltree.doc_parse", func() { _, err = xmltree.Parse(bytes.NewReader(doc)) })
		if err != nil {
			return err
		}
		tr.time(i, mid, "wal.append", func() { _, err = scratch.Append(uint64(i+1), [][]byte{doc}) })
		if err != nil {
			return err
		}
		var sums []*core.Estimator
		for _, sh := range in.s.db.Store().Current().Shards() {
			est, err := sh.Summary(serveOptions)
			if err != nil {
				return err
			}
			sums = append(sums, est)
		}
		tr.time(i, 0, "shard.fold", func() { _, _, err = core.MergeSummaries(sums) })
		if err != nil {
			return err
		}
		if i%4 == 3 {
			var merged int
			seq := tr.time(i, 0, "shard.compact", func() { merged, err = in.s.db.Compact(xmlest.CompactionPolicy{}) })
			if err != nil {
				return err
			}
			if merged > 0 {
				in.compactSeqs = append(in.compactSeqs, seq)
			}
		}
	}
	return nil
}

// acked records one ladder append's outcome like the generator does.
func (in *ingestServer) acked(k int64, seq, version uint64, size int, err error) {
	if err == nil {
		in.out.printf("ack %d %d %d\n", k, seq, version)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.appRep.check(err)
	if err == nil {
		in.userBytes += int64(size)
	}
}

// setAppendLayers reports the append ladder.
func (in *ingestServer) setAppendLayers(rep *report, tr *tracer) {
	rep.set("server.append_self_us", medianOf(tr.selfTimes("server.append"), time.Microsecond), "us")
	rep.set("xmlest.append_us", medianOf(tr.durations("xmlest.append"), time.Microsecond), "us")
	rep.set("xmltree.doc_parse_us", medianOf(tr.durations("xmltree.doc_parse"), time.Microsecond), "us")
	rep.set("wal.append_us", medianOf(tr.durations("wal.append"), time.Microsecond), "us")
	rep.set("shard.fold_ms", medianOf(tr.durations("shard.fold"), time.Millisecond), "ms")
	var compacts []time.Duration
	for _, seq := range in.compactSeqs {
		compacts = append(compacts, tr.spans[seq-1].dur())
	}
	rep.set("shard.compact_ms", medianOf(compacts, time.Millisecond), "ms")
	rep.env["compactions_timed"] = len(compacts)
}

// recoveryChild recovers a killed data directory in a fresh process and
// checks every acknowledged append (read from standard input) against
// the recovered shards.
func recoveryChild(args []string) error {
	f, err := parseChildFlags(recoveryRole, args)
	if err != nil {
		return err
	}
	seed, dir := f.seed, f.dir
	var acks []ack
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		a, err := parseAck(sc.Text())
		if err != nil {
			return err
		}
		acks = append(acks, a)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	c, err := dblpCorpus(seed)
	if err != nil {
		return err
	}
	rep := newReport()
	records := 0
	scanStart := time.Now()
	err = wal.ScanDir(filepath.Join(dir, shard.WALDir), 0, func(wal.Record) error { records++; return nil })
	scan := time.Since(scanStart)
	if err != nil {
		return err
	}
	freeMemory()
	start := time.Now()
	db, err := xmlest.OpenDurable(dir, durableConfig(c))
	took := time.Since(start)
	if err != nil {
		return err
	}
	titles := map[string]bool{}
	for _, sh := range db.Store().Current().Shards() {
		t := sh.Tree()
		if t == nil {
			continue
		}
		for _, id := range t.NodesWithTag("title") {
			if txt := t.Nodes[id].Text; strings.HasPrefix(txt, "perfbench ") {
				titles[txt] = true
			}
		}
	}
	var maxVersion uint64
	for _, a := range acks {
		maxVersion = max(maxVersion, a.version)
		if !titles[docTitle(seed, a.doc)] {
			rep.check(fmt.Errorf("acknowledged append %d (wal_seq %d) missing after recovery", a.doc, a.walSeq))
			continue
		}
		rep.check(nil)
	}
	if v := db.Version(); v < maxVersion {
		rep.check(fmt.Errorf("recovered version %d is below acknowledged version %d", v, maxVersion))
	} else {
		rep.check(nil)
	}
	rec, _ := db.Recovery()
	rep.set("recovery_s", took.Seconds(), "s")
	rep.set("wal.scan_ms", ms(scan), "ms")
	rep.set("shard.recovered_shards", float64(db.ShardCount()), "count")
	rep.env["recovery"] = map[string]any{"wal_records": records, "replayed_records": rec.ReplayedRecords, "replayed_docs": rec.ReplayedDocs}
	return writeResult(os.Stdout, rep)
}
