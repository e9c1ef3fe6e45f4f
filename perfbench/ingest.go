package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmlest"
	"xmlest/internal/server"
)

// ingest-mixed settings: appends arrive open-loop at appendRate next to
// one closed-loop reader cycling ingestTwigs twigs; the durable database
// fsyncs every commit and compacts in the background every
// autoCompact, as scripts/bench.sh deploys the daemon, with no
// background checkpoint (the daemon default).
const (
	appendRate  = 200
	ingestTwigs = 16
	autoCompact = time.Second
	// appendLadderDocs is how many documents the traced run's append
	// ladder sends through each write-path entry point.
	appendLadderDocs = 32
	// recoveryRepeats is how many copies of the killed directory the
	// traced run recovers; recovery_s is the median.
	recoveryRepeats = 3
)

// The process roles: the benchmark re-executes itself as the serving
// process that is killed, and as the fresh process that recovers.
const (
	servingRole  = "__ingest"
	recoveryRole = "__recover"
)

// ingestMixed runs the serving process as a child, kills it with
// SIGKILL once it has reported, and recovers its data directory in
// fresh processes, checking that every acknowledged append survived.
func ingestMixed(cfg runConfig) (*report, error) {
	dataDir := filepath.Join(cfg.dir, "data")
	res, acks, err := runServing(cfg, dataDir)
	if err != nil {
		return nil, err
	}
	rep := res.report()
	if !cfg.trace {
		if err := timeSetup(cfg, "dblp", true, rep); err != nil {
			return nil, err
		}
		if err := runAccuracy(cfg, "dblp", rep); err != nil {
			return nil, err
		}
	}
	repeats := 1
	if cfg.trace {
		repeats = recoveryRepeats
	}
	dirs := []string{dataDir}
	for i := 1; i < repeats; i++ {
		d := filepath.Join(cfg.dir, "copy-"+strconv.Itoa(i))
		if err := copyDir(dataDir, d); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	var recS, scanMS, shards []float64
	for _, d := range dirs {
		r, err := runRecovery(cfg, d, acks)
		if err != nil {
			return nil, err
		}
		rep.attempted += r.Attempted
		rep.failed += r.Failed
		rep.problems = append(rep.problems, r.Problems...)
		recS = append(recS, r.Metrics["recovery_s"].Value)
		scanMS = append(scanMS, r.Metrics["wal.scan_ms"].Value)
		shards = append(shards, r.Metrics["shard.recovered_shards"].Value)
	}
	rep.env["acked_appends"] = len(acks)
	rep.env["recoveries"] = len(dirs)
	if cfg.trace {
		rep.set("recovery_s", median(recS), "s")
		rep.set("wal.scan_ms", median(scanMS), "ms")
		rep.set("shard.recovered_shards", median(shards), "count")
	}
	return rep, nil
}

// ack is one acknowledged append: the document number and the WAL
// sequence and version its response carried.
type ack struct {
	doc     int64
	walSeq  uint64
	version uint64
}

// runServing starts the serving child, collects its acknowledgements
// and result, kills it with SIGKILL while its appends are still
// flowing, and waits for it to exit.
func runServing(cfg runConfig, dataDir string) (*childResult, []ack, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(cfg))
	defer cancel()
	cmd, err := childCommand(ctx, servingRole, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace="+strconv.FormatBool(cfg.trace), "--dir", dataDir)
	if err != nil {
		return nil, nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	var res *childResult
	var acks []ack
	var parseErr error
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ack "):
			a, err := parseAck(line)
			if err != nil && parseErr == nil {
				parseErr = err
			}
			acks = append(acks, a)
		case strings.HasPrefix(line, "result "):
			res = &childResult{}
			if err := json.Unmarshal([]byte(line[len("result "):]), res); err != nil && parseErr == nil {
				parseErr = err
			}
			// The crash: the child is still appending.
			_ = cmd.Process.Kill()
		}
	}
	_ = cmd.Wait() // killed on purpose; its exit status says so
	switch {
	case parseErr != nil:
		return nil, nil, parseErr
	case res == nil:
		return nil, nil, fmt.Errorf("serving process exited without a result")
	}
	return res, acks, nil
}

func parseAck(line string) (ack, error) {
	f := strings.Fields(line)
	if len(f) != 4 {
		return ack{}, fmt.Errorf("malformed ack line %q", line)
	}
	doc, err1 := strconv.ParseInt(f[1], 10, 64)
	seq, err2 := strconv.ParseUint(f[2], 10, 64)
	ver, err3 := strconv.ParseUint(f[3], 10, 64)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			return ack{}, fmt.Errorf("ack line %q: %w", line, err)
		}
	}
	return ack{doc: doc, walSeq: seq, version: ver}, nil
}

// runRecovery recovers dir in a fresh process and checks acks there.
func runRecovery(cfg runConfig, dir string, acks []ack) (*childResult, error) {
	var in bytes.Buffer
	for _, a := range acks {
		fmt.Fprintf(&in, "ack %d %d %d\n", a.doc, a.walSeq, a.version)
	}
	return runChild(cfg, in.Bytes(), recoveryRole, "--seed", strconv.FormatInt(cfg.seed, 10), "--dir", dir)
}

// copyDir copies the regular files of a data directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// lineWriter serializes whole lines to standard output, unbuffered, so
// an acknowledgement printed before SIGKILL reaches the parent.
type lineWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lineWriter) printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, args...)
}

// ingestDoc is appended document number k: a small DBLP article whose
// title is unique to (seed, k), so recovery can check it by content.
func ingestDoc(seed, k int64) []byte {
	r := newRand(seed ^ docSeedSalt ^ (k * 0x9e3779b1))
	var b strings.Builder
	fmt.Fprintf(&b, `<article key="perfbench/%d/%d">`, seed, k)
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		fmt.Fprintf(&b, "<author>%s %s</author>", firstNames[r.Intn(len(firstNames))], lastNames[r.Intn(len(lastNames))])
	}
	fmt.Fprintf(&b, "<title>%s</title>", docTitle(seed, k))
	fmt.Fprintf(&b, "<year>%d</year>", 1980+r.Intn(20))
	for i, n := 0, r.Intn(4); i < n; i++ {
		venue := "conf"
		if r.Intn(2) == 0 {
			venue = "journals"
		}
		fmt.Fprintf(&b, "<cite>%s/%s/%d</cite>", venue, lastNames[r.Intn(len(lastNames))], r.Intn(1000))
	}
	fmt.Fprintf(&b, "<url>db/journals/perfbench/%d.html</url></article>", k)
	return []byte(b.String())
}

func docTitle(seed, k int64) string { return fmt.Sprintf("perfbench %d/%d", seed, k) }

var (
	firstNames = []string{"Yuqing", "Jignesh", "Divesh", "Ada", "Edgar", "Jim", "Barbara", "Michael"}
	lastNames  = []string{"Wu", "Patel", "Jagadish", "Lovelace", "Codd", "Gray", "Liskov", "Stonebraker"}
)

// checkAppend validates one /append response: status 200 and a
// durable acknowledgement carrying its WAL sequence and version.
func checkAppend(status int, body []byte) (seq, version uint64, err error) {
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("/append status %d: %.200s", status, body)
	}
	var resp server.AppendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, 0, fmt.Errorf("/append response: %w", err)
	}
	if resp.Durable == nil || !*resp.Durable || resp.WALSeq == 0 {
		return 0, 0, fmt.Errorf("/append acknowledged without durability: %.200s", body)
	}
	return resp.WALSeq, resp.Version, nil
}

// durableConfig is the serving and recovering processes' durability:
// xqestd's default -fsync always, bootstrapped from the corpus.
func durableConfig(c *corpus) xmlest.DurableConfig {
	return xmlest.DurableConfig{Options: serveOptions, Fsync: "always", Bootstrap: c.database}
}

// openServing bootstraps a durable database from the corpus into an
// empty directory and serves it; the returned duration is the set-up.
func openServing(c *corpus, dir string) (*served, time.Duration, error) {
	start := time.Now()
	db, err := xmlest.OpenDurable(dir, durableConfig(c))
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(db, serverConfig(autoCompact))
	if err != nil {
		return nil, 0, err
	}
	db.MergeSummaries()
	return &served{db: db, srv: srv}, time.Since(start), nil
}

// ingestServer is the serving child's state.
type ingestServer struct {
	seed int64
	dir  string
	s    *served
	h    http.Handler
	out  *lineWriter

	nextDoc atomic.Int64
	done    atomic.Int64 // appends completed
	stop    atomic.Bool
	wg      sync.WaitGroup
	gen     openLoop

	mu        sync.Mutex // guards appRep and userBytes
	appRep    *report
	userBytes int64

	compactSeqs []int // append-ladder compaction spans that merged shards
}

// appendDoc sends document k through /append and reports its
// acknowledgement to the parent.
func (in *ingestServer) appendDoc(k int64) {
	doc := ingestDoc(in.seed, k)
	status, body := newCall(http.MethodPost, "/append", "application/xml", doc).do(in.h)
	seq, ver, err := checkAppend(status, body)
	in.acked(k, seq, ver, len(doc), err)
	in.done.Add(1)
}

// generate runs the open-loop append generator until stop is set.
func (in *ingestServer) generate() {
	in.gen.run(in.stop.Load, func(int) { in.appendDoc(in.nextDoc.Add(1) - 1) })
}
