// Command xqest loads an XML database, builds position histograms, and
// answers answer-size queries for twig patterns.
//
// Usage:
//
//	xqest -data a.xml[,b.xml,...] stats
//	xqest -data a.xml predicates
//	xqest -data a.xml -grid 10 estimate '//article//author'
//	xqest -data a.xml exact '//article//author'
//	xqest -data a.xml -grid 10 explain '//a[.//b]//c'
//
// Shard lifecycle: -append lands extra files as one shard each (only
// the new documents are summarized), `shards` lists the serving set,
// `compact` merges small shards, and `drop <id>` removes one.
//
//	xqest -data a.xml -append b.xml,c.xml shards
//	xqest -data a.xml -append b.xml estimate '//article//author'
//	xqest -data a.xml -append b.xml,c.xml,d.xml compact
//	xqest -data a.xml -append b.xml drop 2
//
// Persistence: `build` (or -save with estimate) writes the summary as
// one XQS2 shard-set container, however many shards it has, and -load
// estimates from a saved summary without touching any data.
//
//	xqest -data a.xml -append b.xml build -o summary.bin
//	xqest -load summary.bin estimate '//article//author'
//
// The -dataset flag substitutes a built-in synthetic dataset for -data:
// dblp, hier, xmark or shakespeare.
//
// Durability: `wal` and `manifest` inspect a durable daemon's data
// directory (see xqestd -data-dir) — WAL segments and records, and the
// checkpoint manifest:
//
//	xqest -data-dir /var/lib/xqest wal records
//	xqest -data-dir /var/lib/xqest manifest
//
// Serving is the xqestd command's job; `xqest -server URL stats`
// introspects a running daemon.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"xmlest"
	"xmlest/internal/accuracy"
	"xmlest/internal/cliutil"
	"xmlest/internal/pattern"
	"xmlest/internal/planner"
	"xmlest/internal/version"
)

func main() {
	data := flag.String("data", "", "comma-separated XML files (one shard)")
	appendFiles := flag.String("append", "", "comma-separated XML files appended as one shard each")
	dataset := flag.String("dataset", "", "built-in dataset: dblp, hier, xmark, shakespeare")
	grid := flag.Int("grid", 10, "histogram grid size g (gxg buckets)")
	scale := flag.Float64("scale", 0.1, "built-in dataset scale")
	seed := flag.Int64("seed", 2002, "built-in dataset seed")
	load := flag.String("load", "", "summary file: estimate from it without loading data")
	save := flag.String("save", "", "after estimating, save the summary to this file")
	out := flag.String("o", "summary.bin", "output file for the build command")
	maxShards := flag.Int("max-shards", 0, "compact: target shard count (0 = policy default)")
	dataDir := flag.String("data-dir", "", "wal/manifest: durable data directory to inspect")
	serverURL := flag.String("server", "", "stats: base URL of a running daemon (e.g. http://127.0.0.1:8080) to introspect instead of local data")
	rawMetrics := flag.Bool("metrics", false, "stats -server: dump the raw Prometheus exposition instead of the pretty summary")
	twigs := flag.Int("twigs", 50, "accuracy: number of random twig queries in the seeded workload")
	twigSeed := flag.Int64("twig-seed", 1, "accuracy: random-twig workload seed (same seed, same workload)")
	jsonOut := flag.Bool("json", false, "accuracy: emit the report as JSON (for benchmark harnesses)")
	showVersion := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("xqest " + version.String())
		return
	}
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)

	// Daemon introspection: `xqest -server URL stats` pretty-prints a
	// running daemon's /stats (or, with -metrics, dumps its raw
	// Prometheus exposition) — no local corpus involved.
	if *serverURL != "" {
		if cmd != "stats" {
			fatal(fmt.Errorf("xqest: -server only applies to the stats command"))
		}
		var err error
		if *rawMetrics {
			err = cliutil.DumpMetrics(os.Stdout, *serverURL)
		} else {
			err = cliutil.ShowStats(os.Stdout, *serverURL)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	// The durability inspectors read the data directory only; no
	// corpus, summary or estimator involved.
	if cmd == "wal" || cmd == "manifest" {
		if *dataDir == "" {
			fatal(fmt.Errorf("xqest: %s requires -data-dir", cmd))
		}
		var err error
		if cmd == "wal" {
			err = cliutil.InspectWAL(os.Stdout, *dataDir, flag.Arg(1) == "records")
		} else {
			err = cliutil.InspectManifest(os.Stdout, *dataDir)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	// Estimation from a saved summary needs no data at all.
	if *load != "" && cmd == "estimate" {
		blob, err := os.ReadFile(*load)
		if err != nil {
			fatal(err)
		}
		est, err := xmlest.LoadEstimator(blob)
		if err != nil {
			fatal(err)
		}
		res, err := est.Estimate(needPattern())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("estimate: %.2f\nestimation time: %s\n(loaded from %s, %d bytes, %d shard(s))\n",
			res.Estimate, res.Elapsed, *load, len(blob), est.ShardCount())
		return
	}

	var db *xmlest.Database
	var err error
	switch {
	case cmd == "accuracy" && *load != "":
		// A summary blob holds histograms, not documents: there is no
		// exact count to compare against, so accuracy evaluation over it
		// would be circular. Refuse rather than silently score nothing.
		fatal(fmt.Errorf("xqest: accuracy needs documents for exact counts; a summary (%s) cannot be verified — use -data, -dataset or -data-dir", *load))
	case cmd == "accuracy" && *dataDir != "":
		db, err = cliutil.OpenDurableDatabase(*dataDir, xmlest.Options{GridSize: *grid}, cliutil.DurableFlags{})
	default:
		db, err = openDatabase(*data, *dataset, *scale, *seed)
	}
	if err != nil {
		fatal(err)
	}
	if *appendFiles != "" {
		for _, path := range strings.Split(*appendFiles, ",") {
			info, err := appendFile(db, path)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("appended %s as shard %d (%d nodes)\n", path, info.ID, info.Nodes)
		}
	}

	switch cmd {
	case "build":
		est, err := db.NewEstimator(xmlest.Options{GridSize: *grid})
		if err != nil {
			fatal(err)
		}
		blob, err := est.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d-byte summary for %d predicates across %d shard(s) to %s\n",
			len(blob), db.Catalog().Len(), est.ShardCount(), *out)
	case "stats":
		s := db.Tree().Stats()
		fmt.Printf("nodes: %d\ndistinct tags: %d\nmax depth: %d\nmax position: %d\nshards: %d\n",
			s.Nodes, s.DistinctTag, s.MaxDepth, s.MaxPos, db.ShardCount())
	case "shards":
		fmt.Printf("version %d, %d shard(s):\n", db.Version(), db.ShardCount())
		for _, sh := range db.Shards() {
			kind := "documents"
			if sh.SummaryOnly {
				kind = "summary-only"
			}
			fmt.Printf("  shard %-4d %10d nodes %6d doc(s)  %s\n", sh.ID, sh.Nodes, sh.Docs, kind)
		}
	case "compact":
		policy := xmlest.CompactionPolicy{MaxShards: *maxShards}
		merged, err := db.Compact(policy)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("merged %d shard(s); %d remain (version %d)\n", merged, db.ShardCount(), db.Version())
	case "drop":
		if flag.NArg() < 2 {
			fatal(fmt.Errorf("xqest: drop requires a shard id"))
		}
		id, err := strconv.ParseUint(flag.Arg(1), 10, 64)
		if err != nil {
			fatal(fmt.Errorf("xqest: bad shard id %q", flag.Arg(1)))
		}
		found, err := db.DropShard(id)
		if err != nil {
			fatal(err)
		}
		if !found {
			fatal(fmt.Errorf("xqest: no shard %d", id))
		}
		fmt.Printf("dropped shard %d; %d remain\n", id, db.ShardCount())
	case "predicates":
		for _, name := range db.Catalog().Names() {
			e := db.Catalog().MustGet(name)
			prop := "overlap"
			if e.NoOverlap {
				prop = "no overlap"
			}
			fmt.Printf("%-30s %10d  %s\n", name, e.Count(), prop)
		}
	case "estimate":
		src := needPattern()
		est, err := db.NewEstimator(xmlest.Options{GridSize: *grid})
		if err != nil {
			fatal(err)
		}
		res, err := est.Estimate(src)
		if err != nil {
			fatal(err)
		}
		algo := "primitive pH-join"
		if res.UsedNoOverlap {
			algo = "no-overlap (coverage)"
		}
		fmt.Printf("estimate: %.2f\nalgorithm: %s\nestimation time: %s\nsummary storage: %d bytes (%d shard(s))\n",
			res.Estimate, algo, res.Elapsed, est.StorageBytes(), est.ShardCount())
		if *save != "" {
			blob, err := est.MarshalBinary()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*save, blob, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("saved summary to %s (%d bytes)\n", *save, len(blob))
		}
	case "accuracy":
		if err := runAccuracy(os.Stdout, db, *grid, *twigs, *twigSeed, *jsonOut); err != nil {
			fatal(err)
		}
	case "exact":
		src := needPattern()
		real, err := db.Count(src)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exact answer size: %.0f\n", real)
	case "explain":
		src := needPattern()
		est, err := db.NewEstimator(xmlest.Options{GridSize: *grid})
		if err != nil {
			fatal(err)
		}
		p, err := pattern.Parse(src)
		if err != nil {
			fatal(err)
		}
		plans, err := planner.Enumerate(est.Core(), p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d candidate join orders (cost = sum of intermediate sizes):\n", len(plans))
		show := len(plans)
		if show > 8 {
			show = 8
		}
		for i := 0; i < show; i++ {
			fmt.Printf("%2d. cost %12.1f  %s\n", i+1, plans[i].Cost, plans[i])
		}
	default:
		usage()
	}
}

// runAccuracy evaluates the estimator against exact counts over the
// two seeded workloads the accuracy harness tracks: the exhaustive
// element-tag-pair workload and a deterministic random-twig workload.
// The same q-error quantiles the daemon's online monitor exports are
// reported per workload, so offline regression numbers and production
// numbers read on one scale.
func runAccuracy(w io.Writer, db *xmlest.Database, grid, twigs int, twigSeed int64, jsonOut bool) error {
	est, err := db.NewEstimator(xmlest.Options{GridSize: grid})
	if err != nil {
		return err
	}
	coreEst := est.Core()
	if coreEst == nil {
		return fmt.Errorf("xqest: accuracy needs document-backed shards for exact counts")
	}
	cat := db.Catalog()
	type workload struct {
		name     string
		patterns []string
	}
	workloads := []workload{
		{"pairs", accuracy.PairWorkload(cat)},
		{"random_twigs", accuracy.RandomTwigWorkload(cat, twigs, twigSeed)},
	}
	reports := make(map[string]accuracy.Report, len(workloads))
	for _, wl := range workloads {
		_, rep, err := accuracy.Evaluate(cat, coreEst, wl.patterns)
		if err != nil {
			return fmt.Errorf("xqest: accuracy workload %s: %w", wl.name, err)
		}
		reports[wl.name] = rep
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Grid      int                        `json:"grid"`
			TwigSeed  int64                      `json:"twig_seed"`
			Workloads map[string]accuracy.Report `json:"workloads"`
		}{grid, twigSeed, reports})
	}
	for _, wl := range workloads {
		rep := reports[wl.name]
		fmt.Fprintf(w, "workload %-14s %4d queries (%d empty, %d underestimated)\n",
			wl.name, rep.Queries, rep.EmptyReal, rep.Under)
		fmt.Fprintf(w, "  q-error q50 %.3f  q90 %.3f  qmax %.3f   mean rel. err. %.3f\n",
			rep.Q50, rep.Q90, rep.QMax, rep.MeanRelErr)
	}
	return nil
}

func appendFile(db *xmlest.Database, path string) (xmlest.ShardInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return xmlest.ShardInfo{}, err
	}
	defer f.Close()
	return db.Append(f)
}

func openDatabase(data, dataset string, scale float64, seed int64) (*xmlest.Database, error) {
	db, err := cliutil.OpenDatabase(data, dataset, scale, seed)
	if err != nil {
		return nil, fmt.Errorf("xqest: %w", err)
	}
	return db, nil
}

func needPattern() string {
	if flag.NArg() < 2 {
		fatal(fmt.Errorf("xqest: %s requires a pattern argument", flag.Arg(0)))
	}
	return flag.Arg(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: xqest [-data files | -dataset name] [-append files] [-grid g] <command> [arg]

commands:
  stats                 dataset statistics
                        (-server URL: introspect a running daemon's /stats
                         instead; -metrics dumps its raw Prometheus exposition)
  shards                list live shards (id, nodes, docs, kind)
  predicates            registered predicates with counts and overlap property
  build                 build histograms and write them to -o (default summary.bin)
                        as one XQS2 shard-set container
  estimate '<pattern>'  estimated answer size via position histograms
                        (-save file: persist the summary afterwards;
                         -load file: estimate from a saved summary, no data)
  exact '<pattern>'     exact answer size (ground truth)
  accuracy              estimate-vs-exact q-error over seeded workloads
                        (all tag pairs + -twigs random twigs under -twig-seed;
                         -json emits machine-readable reports; works over
                         -data, -dataset or -data-dir, never a summary)
  explain '<pattern>'   candidate join orders with intermediate estimates
  compact               merge small shards (size-tiered; -max-shards caps the count)
  drop <shard-id>       remove a shard from the serving set
  wal [records]         inspect a durable data directory's write-ahead log
                        (-data-dir dir; "records" lists every logged batch)
  manifest              inspect a durable data directory's checkpoint manifest
                        (-data-dir dir)`)
	os.Exit(2)
}
