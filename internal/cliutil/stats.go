package cliutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"xmlest/internal/metrics"
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
// serving surface from its families: uptime, corpus shape,
// per-endpoint traffic, tracked patterns, shadow-verified accuracy,
// and (when durable) the WAL/checkpoint state. Latency quantiles are
// read from the histogram buckets, in µs. The report is written with
// one Write, so a reader that stops early (grep -q) cannot cut it off
// mid-report.
func ShowStats(out io.Writer, baseURL string) error {
	body, err := fetch(strings.TrimRight(baseURL, "/") + "/stats")
	if err != nil {
		return err
	}
	var fams metrics.Families
	if err := json.Unmarshal(body, &fams); err != nil {
		return fmt.Errorf("decode /stats: %w", err)
	}
	w := new(bytes.Buffer)
	v := func(sample string, labels ...string) float64 {
		x, _ := fams.Value(sample, labels...)
		return x
	}

	if bi := fams.Find("xqest_build_info"); bi != nil && len(bi.Samples) > 0 {
		s := bi.Samples[0]
		fmt.Fprintf(w, "daemon %s (%s) %s\n", s.Label("version"), s.Label("revision"), s.Label("go_version"))
	}
	uptime := v("xqest_uptime_seconds")
	fmt.Fprintf(w, "uptime: %s  version: %.0f  read-only: %v\n",
		(time.Duration(uptime * float64(time.Second))).Round(time.Second), v("xqest_set_version"), v("xqest_read_only") == 1)
	fmt.Fprintf(w, "corpus: %.0f doc(s), %.0f node(s), %.0f shard(s); summary %.0f bytes (grid %.0f)\n",
		v("xqest_corpus_docs"), v("xqest_corpus_nodes"), v("xqest_shards"), v("xqest_summary_bytes"), v("xqest_grid_size"))
	if appended, rounds := v("xqest_appended_docs_total"), v("xqest_autocompact_rounds_total"); appended > 0 || rounds > 0 {
		fmt.Fprintf(w, "ingest: %.0f doc(s) appended; %.0f auto-compact round(s), %.0f shard(s) merged\n",
			appended, rounds, v("xqest_autocompact_merged_total"))
	}

	const lat = "xqest_http_request_duration_seconds"
	fmt.Fprintf(w, "\n%-14s %10s %7s %8s %9s %9s %9s\n",
		"endpoint", "requests", "errors", "qps", "p50", "p95", "p99")
	if req := fams.Find("xqest_http_requests_total"); req != nil {
		for _, s := range req.Samples {
			if s.Value == 0 {
				continue
			}
			ep := s.Label("endpoint")
			fmt.Fprintf(w, "%-14s %10.0f %7.0f %8.1f %8.1fµ %8.1fµ %8.1fµ\n",
				ep, s.Value, v("xqest_http_errors_total", "endpoint", ep), s.Value/uptime,
				fams.Quantile(lat, 0.5, "endpoint", ep)*1e6, fams.Quantile(lat, 0.95, "endpoint", ep)*1e6,
				fams.Quantile(lat, 0.99, "endpoint", ep)*1e6)
		}
	}

	if req := fams.Find("xqest_pattern_requests_total"); req != nil {
		fmt.Fprintf(w, "\ntop patterns (%.0f untracked request(s) beyond these):\n", v("xqest_pattern_untracked_requests_total"))
		top := append([]metrics.Sample(nil), req.Samples...)
		sort.SliceStable(top, func(i, j int) bool { return top[i].Value > top[j].Value })
		for _, s := range top[:min(len(top), 10)] {
			p := []string{"pattern", s.Label("pattern")}
			fmt.Fprintf(w, "  %8.0f× %-40s est mean %.0f  lat mean %.1fµs",
				s.Value, p[1], v("xqest_pattern_estimate_mean", p...),
				v("xqest_pattern_latency_seconds_sum", p...)/v("xqest_pattern_latency_seconds_count", p...)*1e6)
			if n, ok := fams.Value("xqest_pattern_qerror_count", p...); ok {
				fmt.Fprintf(w, "  qerr mean %.2f (%.0f verified)", v("xqest_pattern_qerror_mean", p...), n)
			}
			fmt.Fprintln(w)
		}
	}

	if every, ok := fams.Value("xqest_accuracy_sample_every"); ok {
		fmt.Fprintf(w, "\naccuracy (shadow execution, 1 in %.0f, budget %.0fms):\n", every, v("xqest_accuracy_budget_seconds")*1e3)
		verified := v("xqest_accuracy_verified_total")
		fmt.Fprintf(w, "  sampled %.0f  verified %.0f  dropped %.0f  deadline %.0f  unverifiable %.0f  failed %.0f\n",
			v("xqest_accuracy_sampled_total"), verified, v("xqest_accuracy_dropped_total"),
			v("xqest_accuracy_deadline_total"), v("xqest_accuracy_unverifiable_total"), v("xqest_accuracy_failed_total"))
		if verified > 0 {
			const q = "xqest_accuracy_qerror"
			fmt.Fprintf(w, "  q-error q50 %.3f  q90 %.3f  q99 %.3f   mean rel. err. %.3f\n",
				fams.Quantile(q, 0.5), fams.Quantile(q, 0.9), fams.Quantile(q, 0.99),
				v("xqest_accuracy_relative_error_total")/verified)
		}
	}

	if _, ok := fams.Value("xqest_wal_last_seq"); ok {
		fmt.Fprintf(w, "\ndurability:\n")
		fmt.Fprintf(w, "  wal: %.0f segment(s), %.0f bytes, last seq %.0f, durable seq %.0f\n",
			v("xqest_wal_segments"), v("xqest_wal_size_bytes"), v("xqest_wal_last_seq"), v("xqest_wal_durable_seq"))
		fmt.Fprintf(w, "  checkpoints: %.0f taken, version %.0f, wal seq %.0f, %.0f failure(s)\n",
			v("xqest_checkpoints_total"), v("xqest_checkpoint_version"), v("xqest_checkpoint_wal_seq"),
			v("xqest_checkpoint_failures_total"))
		fmt.Fprintf(w, "  group commit: %.0f group(s), %.0f batch(es)\n",
			v("xqest_group_commit_group_size_count"), v("xqest_group_commit_group_size_sum"))
		if deg := fams.Find("xqest_degraded"); deg != nil {
			for _, s := range deg.Samples {
				if s.Value == 1 {
					fmt.Fprintf(w, "  DEGRADED: %s (reason on /healthz)\n", s.Label("component"))
				}
			}
		}
	}

	if _, ok := fams.Value("xqest_replica_lag_seq"); ok {
		fmt.Fprintf(w, "\nreplication (follower):\n")
		fmt.Fprintf(w, "  leader seq %.0f, applied seq %.0f, lag %.0f seq / %.1fs, connected %v, stale %v\n",
			v("xqest_replica_leader_seq"), v("xqest_replica_applied_seq"), v("xqest_replica_lag_seq"),
			v("xqest_replica_lag_seconds"), v("xqest_replica_connected") == 1, v("xqest_replica_stale") == 1)
	}
	_, err = out.Write(w.Bytes())
	return err
}
