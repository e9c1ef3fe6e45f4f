package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xmlest"
	"xmlest/internal/datagen"
	"xmlest/internal/predicate"
	"xmlest/internal/server"
	"xmlest/internal/xmltree"
)

// corpus is a workload's raw input: XML documents as bytes, plus the
// predicate vocabulary registered over the parsed tree.
type corpus struct {
	name    string
	docs    [][]byte
	catalog func(*xmltree.Tree) *predicate.Catalog
	bytes   int
}

// dblpScale is the DBLP-shaped corpus size: scale 4 is about 21 MB of
// XML and 620k nodes with the paper's Table 1 predicates.
const dblpScale = 4

// dblpCorpus generates the read-hot and ingest-mixed corpus.
func dblpCorpus(seed int64) (*corpus, error) {
	tree := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: seed, Scale: dblpScale})
	var buf bytes.Buffer
	if err := xmltree.WriteXML(&buf, tree, tree.Root()); err != nil {
		return nil, err
	}
	return &corpus{name: "dblp", docs: [][]byte{buf.Bytes()}, catalog: datagen.DBLPCatalog, bytes: buf.Len()}, nil
}

// hierDocs and hierSeedStride shape the recursive read-wide corpus. It
// is a collection of Scale 1 documents because GenerateHier does not
// scale: at Scale 10 it exhausts its retries and returns trees of 13 to
// 487 nodes against a target of 19,600. The seeds are strided rather
// than consecutive: GenerateHier retries seed, seed+1, ... internally,
// so nearby seeds return the same document.
const (
	hierDocs       = 100
	hierSeedStride = 1000
)

// hierCorpus generates the read-wide corpus from the paper's
// manager/department/employee DTD.
func hierCorpus(seed int64) (*corpus, error) {
	c := &corpus{name: "hier", catalog: datagen.HierCatalog}
	for i := 0; i < hierDocs; i++ {
		tree := datagen.GenerateHier(datagen.HierConfig{Seed: seed*hierDocs*hierSeedStride + int64(i)*hierSeedStride, Scale: 1})
		var buf bytes.Buffer
		if err := xmltree.WriteXML(&buf, tree, tree.Root()); err != nil {
			return nil, err
		}
		c.docs = append(c.docs, buf.Bytes())
		c.bytes += buf.Len()
	}
	return c, nil
}

// parse parses the corpus bytes into one tree, one document per reader.
func (c *corpus) parse() (*xmltree.Tree, error) {
	readers := make([]io.Reader, len(c.docs))
	for i, d := range c.docs {
		readers[i] = bytes.NewReader(d)
	}
	return xmltree.ParseCollection(readers, xmltree.DefaultParseOptions)
}

// database parses the corpus and registers its predicates: the work
// every set-up (and every durable bootstrap) repeats.
func (c *corpus) database() (*xmlest.Database, error) {
	tree, err := c.parse()
	if err != nil {
		return nil, err
	}
	return xmlest.FromCatalog(c.catalog(tree)), nil
}

// serverConfig is xqestd's default configuration (-grid 10,
// -trace-sample 64, -slow-request 1s) with shadow execution off:
// shadow counts are background work dropped when their queue is full,
// so their CPU share would depend on timing. autoCompact is the
// background compaction interval (0 disables it).
func serverConfig(autoCompact time.Duration) server.Config {
	return server.Config{
		Addr:                "127.0.0.1:0",
		Options:             serveOptions,
		TraceSample:         64,
		SlowRequest:         time.Second,
		ShadowSample:        0,
		AutoCompactInterval: autoCompact,
		Logger:              slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
}

// serveOptions are the estimator options the daemon serves with.
var serveOptions = xmlest.Options{GridSize: 10}

// served is a database with a server over it.
type served struct {
	db  *xmlest.Database
	srv *server.Server
}

// setup takes raw corpus bytes to a handler serving from a fresh merged
// fold: parse, catalog, summary build, MergeSummaries.
func setup(c *corpus) (*served, time.Duration, error) {
	start := time.Now()
	db, err := c.database()
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(db, serverConfig(0))
	if err != nil {
		return nil, 0, err
	}
	db.MergeSummaries()
	return &served{db: db, srv: srv}, time.Since(start), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// setupRole times set-up in a process of its own, so the repeated
// set-ups do not raise the measured process's peak memory.
const setupRole = "__setup"

// timeSetup runs setupRepeats set-ups of the run's corpus in a child
// process and reports their median as setup_s; durable selects the
// ingest-mixed set-up.
func timeSetup(cfg runConfig, corpusName string, durable bool, rep *report) error {
	res, err := runChild(cfg, nil, setupRole, "--corpus", corpusName, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--durable="+strconv.FormatBool(durable), "--dir", filepath.Join(cfg.dir, "setup"))
	if err != nil {
		return err
	}
	m, ok := res.Metrics["setup_s"]
	if !ok {
		return fmt.Errorf("set-up process did not report setup_s")
	}
	rep.metrics["setup_s"] = m
	rep.env["setup"] = res.Env
	return nil
}

// setupChild sets up setupRepeats times and reports the median.
func setupChild(args []string) error {
	f, err := parseChildFlags(setupRole, args)
	if err != nil {
		return err
	}
	gen, ok := corpora[f.corpus]
	if !ok {
		return fmt.Errorf("unknown --corpus %q", f.corpus)
	}
	c, err := gen(f.seed)
	if err != nil {
		return err
	}
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		freeMemory()
		var took time.Duration
		if f.durable {
			dir := filepath.Join(f.dir, strconv.Itoa(i))
			var s *served
			if s, took, err = openServing(c, dir); err != nil {
				return err
			}
			if err := s.db.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		} else if _, took, err = setup(c); err != nil {
			return err
		}
		times = append(times, took.Seconds())
	}
	rep := newReport()
	rep.env["setups_s"] = append([]float64(nil), times...)
	rep.set("setup_s", median(times), "s")
	return writeResult(os.Stdout, rep)
}
