package cliutil

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"xmlest/internal/server"
)

// statsClient bounds how long a daemon introspection fetch may take —
// these are interactive CLI calls against a local or nearby daemon.
var statsClient = &http.Client{Timeout: 10 * time.Second}

// fetch GETs url and returns the body, mapping transport and non-200
// statuses to one readable error.
func fetch(url string) ([]byte, error) {
	resp, err := statsClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// DumpMetrics fetches a running daemon's raw Prometheus exposition and
// writes it verbatim.
func DumpMetrics(w io.Writer, baseURL string) error {
	body, err := fetch(strings.TrimRight(baseURL, "/") + "/metrics")
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ShowStats fetches a running daemon's /stats and pretty-prints the
// serving surface: uptime, corpus shape, per-endpoint traffic, top
// patterns, and (when durable) the WAL/checkpoint state.
func ShowStats(w io.Writer, baseURL string) error {
	body, err := fetch(strings.TrimRight(baseURL, "/") + "/stats")
	if err != nil {
		return err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode /stats: %w", err)
	}

	fmt.Fprintf(w, "daemon %s\n", st.Build)
	fmt.Fprintf(w, "uptime: %s  version: %d  read-only: %v\n",
		(time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second), st.Version, st.ReadOnly)
	fmt.Fprintf(w, "corpus: %d doc(s), %d node(s), %d shard(s); summary %d bytes (grid %d)\n",
		st.Corpus.Docs, st.Corpus.Nodes, st.Corpus.Shards, st.SummaryBytes, st.GridSize)
	if st.AppendedDocs > 0 || st.AutoCompactions > 0 {
		fmt.Fprintf(w, "ingest: %d doc(s) appended; %d auto-compact round(s), %d shard(s) merged\n",
			st.AppendedDocs, st.AutoCompactions, st.AutoMerged)
	}

	fmt.Fprintf(w, "\n%-14s %10s %7s %8s %9s %9s %9s\n",
		"endpoint", "requests", "errors", "qps", "p50", "p95", "p99")
	for _, ep := range st.Endpoints {
		if ep.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "%-14s %10d %7d %8.1f %8.1fµ %8.1fµ %8.1fµ\n",
			ep.Name, ep.Requests, ep.Errors, ep.QPS,
			ep.Latency.P50*1e6, ep.Latency.P95*1e6, ep.Latency.P99*1e6)
	}

	if len(st.Patterns) > 0 {
		fmt.Fprintf(w, "\ntop patterns (%d untracked request(s) beyond these):\n", st.UntrackedPatterns)
		for _, p := range st.Patterns {
			fmt.Fprintf(w, "  %8d× %-40s est p50 %.0f  lat p50 %.1fµs",
				p.Requests, p.Pattern, p.Estimate.P50, p.Latency.P50*1e6)
			if p.QError != nil {
				fmt.Fprintf(w, "  qerr p50 %.2f max %.2f (%d verified)",
					p.QError.P50, p.QError.Max, p.QError.Count)
			}
			fmt.Fprintln(w)
		}
	}

	if a := st.Accuracy; a != nil {
		fmt.Fprintf(w, "\naccuracy (shadow execution, 1 in %d, budget %.0fms):\n", a.SampleEvery, a.BudgetMS)
		fmt.Fprintf(w, "  sampled %d  verified %d  dropped %d  deadline %d  unverifiable %d  failed %d\n",
			a.Sampled, a.Verified, a.Dropped, a.Deadline, a.Unverifiable, a.Failed)
		if a.QError.Count > 0 {
			fmt.Fprintf(w, "  q-error q50 %.3f  q90 %.3f  qmax %.3f   mean rel. err. %.3f\n",
				a.QError.P50, a.QError.P90, a.QError.Max, a.MeanRelErr)
		}
	}

	if st.Durability != nil {
		d := st.Durability
		fmt.Fprintf(w, "\ndurability: %s (fsync %s)\n", d.Dir, d.Fsync)
		fmt.Fprintf(w, "  wal: %d segment(s), %d bytes, last seq %d, durable seq %d\n",
			d.WALSegments, d.WALBytes, d.LastSeq, d.DurableSeq)
		fmt.Fprintf(w, "  checkpoints: %d taken, version %d, wal seq %d, %d failure(s)\n",
			d.Checkpoints, d.CheckpointVersion, d.CheckpointWALSeq, d.CheckpointFailures)
		fmt.Fprintf(w, "  group commit: %d group(s), %d batch(es)\n",
			d.GroupCommit.Groups, d.GroupCommit.Batches)
		if d.Degraded {
			fmt.Fprintf(w, "  DEGRADED: %s (%s)\n", d.DegradedComponent, d.DegradedReason)
		}
	}
	return nil
}
