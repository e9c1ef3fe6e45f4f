package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// The benchmark re-executes itself for work that must not share the
// measured process: the ingest-mixed serving process (killed with
// SIGKILL) and its recovery, set-up timing, and the accuracy reference.
// A child prints its result as one "result <json>" line.

// childResult is what a child process reports on its "result" line.
type childResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems"`
	Metrics   map[string]metric `json:"metrics"`
	Env       map[string]any    `json:"env"`
}

func (c *childResult) report() *report {
	r := newReport()
	r.attempted, r.failed, r.problems = c.Attempted, c.Failed, c.Problems
	for k, v := range c.Metrics {
		r.metrics[k] = v
	}
	for k, v := range c.Env {
		r.env[k] = v
	}
	return r
}

// childTimeout bounds how long a child may take to report.
func childTimeout(cfg runConfig) time.Duration {
	return time.Duration(cfg.seconds)*time.Second + 120*time.Second
}

// childCommand prepares the benchmark binary to run in role, killed
// when ctx ends or when this process dies first, so no serving process
// outlives the benchmark.
func childCommand(ctx context.Context, role string, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{role}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// runChild runs the benchmark binary in role with args and stdin and
// returns the result it prints.
func runChild(cfg runConfig, stdin []byte, role string, args ...string) (*childResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(cfg))
	defer cancel()
	cmd, err := childCommand(ctx, role, args...)
	if err != nil {
		return nil, err
	}
	cmd.Stdin = bytes.NewReader(stdin)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "result "); ok {
			res := &childResult{}
			return res, json.Unmarshal([]byte(rest), res)
		}
	}
	return nil, fmt.Errorf("%s process printed no result", role)
}

// childFlags are the arguments of the child roles.
type childFlags struct {
	seed    int64
	seconds int
	trace   bool
	dir     string
	corpus  string
	durable bool
}

func parseChildFlags(role string, args []string) (childFlags, error) {
	var f childFlags
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	fs.Int64Var(&f.seed, "seed", 1, "")
	fs.IntVar(&f.seconds, "seconds", 10, "")
	fs.BoolVar(&f.trace, "trace", false, "")
	fs.StringVar(&f.dir, "dir", "", "")
	fs.StringVar(&f.corpus, "corpus", "", "")
	fs.BoolVar(&f.durable, "durable", false, "")
	return f, fs.Parse(args)
}

// writeResult prints the child's result line.
func writeResult(w io.Writer, rep *report) error {
	b, err := json.Marshal(childResult{
		Attempted: rep.attempted, Failed: rep.failed, Problems: rep.problems,
		Metrics: rep.metrics, Env: rep.env,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "result %s\n", b)
	return err
}
