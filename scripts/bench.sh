#!/usr/bin/env bash
# Runs the tracked performance benchmarks and records them into
# BENCH_PR7.json: the PR 1/2 microbenchmark series (ns/op, now with
# allocs/op from -benchmem), the PR 3 serving series (xqbench driving
# an in-memory xqestd daemon), and the
# durable serving series — the same load against a daemon with a data
# directory at each WAL fsync policy (always / interval / off). The
# durable runs use many concurrent appenders so the PR 7 group-commit
# path has groups to form; each report carries appends/s, append-side
# client p50/p95/p99, ack-to-durable, and the achieved group size and
# fsync rate parsed from the daemon's /stats.
#
# PR 8 adds the observability overhead pair: the default serving run
# now carries the daemon's default tracing (-trace-sample 64, 1s slow
# threshold), and a serving_notrace run disables tracing entirely
# (-trace-sample 0 -slow-request 0) so the two can be compared. Every
# xqbench report also embeds metrics_delta: daemon-side /metrics
# counter deltas across the run.
#
# PR 9 adds accuracy tracking: the default serving run now also
# carries shadow-execution sampling (-shadow-sample 128), paired with
# a serving_noshadow run (-shadow-sample 0); xqbench reports embed
# accuracy_delta (the xqest_accuracy_* counter deltas). A first-class
# "accuracy" section records offline q-error quantiles (q50/q90/qmax,
# mean rel. err.) from `xqest accuracy` over seeded workloads
# (all-pairs + random twigs) on two built-in datasets.
#
# PR 10 adds the replicated serving run (serving_replicated): a durable
# leader plus one follower replaying its WAL over /wal/stream, driven
# by xqbench -targets — appends land on the leader, estimates scatter
# across both nodes, and the report's "nodes" section carries per-node
# QPS and the cross-node append-to-visible lag (leader append ack to
# follower serving the version, p50/p99).
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s scripts/bench.sh      # override -benchtime
#   SERVE_SECONDS=10 scripts/bench.sh  # longer serving runs
#   APPENDERS=32 scripts/bench.sh      # durable-run append concurrency
#   COMMIT_DELAY=5ms scripts/bench.sh  # durable-run group-commit budget
#   SKIP_SERVING=1 scripts/bench.sh    # microbenchmarks only
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR10.json}"
appenders="${APPENDERS:-24}"
commit_delay="${COMMIT_DELAY:-3ms}"
benchtime="${BENCHTIME:-1s}"
serve_seconds="${SERVE_SECONDS:-5}"
port="${BENCH_PORT:-18791}"
addr="127.0.0.1:${port}"
faddr="127.0.0.1:$((port + 1))"
pattern='^(BenchmarkEstimatorBuild|BenchmarkPHJoin|BenchmarkTwigEstimate|BenchmarkFacadeEstimate|BenchmarkCompiledEstimate|BenchmarkAppendToVisible|BenchmarkAppendRebuildMonolithic|BenchmarkShardedEstimate|BenchmarkCompact)(/.+)?$'

workdir="$(mktemp -d)"
daemon_pid=""
follower_pid=""
cleanup() {
  [[ -n "$follower_pid" ]] && kill "$follower_pid" 2>/dev/null || true
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee "$workdir/micro.txt"

# serve_run <report.json> <appenders> [extra xqestd flags...] — boots
# a daemon, drives it with xqbench, shuts it down.
serve_run() {
  local report="$1" nappend="$2"; shift 2
  "$workdir/xqestd" -dataset dblp -scale 0.05 -addr "$addr" -autocompact 1s "$@" \
    >"$workdir/xqestd.log" 2>&1 &
  daemon_pid=$!
  "$workdir/xqbench" -addr "http://$addr" -duration "${serve_seconds}s" \
    -estimators 8 -appenders "$nappend" -o "$report"
  kill -INT "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
}

if [[ -z "${SKIP_SERVING:-}" ]]; then
  echo "== serving benchmark: xqbench against xqestd on $addr =="
  go build -o "$workdir/xqestd" ./cmd/xqestd
  go build -o "$workdir/xqbench" ./cmd/xqbench
  serve_run "$workdir/serving.json" 2
  echo "== serving benchmark: tracing disabled (-trace-sample 0) =="
  serve_run "$workdir/serving-notrace.json" 2 -trace-sample 0 -slow-request 0
  echo "== serving benchmark: shadow sampling disabled (-shadow-sample 0) =="
  serve_run "$workdir/serving-noshadow.json" 2 -shadow-sample 0
  for fsync in always interval off; do
    echo "== durable serving benchmark: -fsync $fsync ($appenders appenders) =="
    rm -rf "$workdir/data-$fsync"
    serve_run "$workdir/durable-$fsync.json" "$appenders" \
      -data-dir "$workdir/data-$fsync" -fsync "$fsync" -checkpoint 2s \
      -commit-delay "$commit_delay"
  done
  echo "== replicated serving benchmark: leader + follower, xqbench -targets =="
  # Both nodes boot the same dataset so the follower converges by pure
  # WAL tailing (the two-node runbook's contract).
  "$workdir/xqestd" -dataset dblp -scale 0.05 -addr "$addr" \
    -data-dir "$workdir/data-leader" -commit-delay "$commit_delay" \
    >"$workdir/xqestd-leader.log" 2>&1 &
  daemon_pid=$!
  "$workdir/xqestd" -dataset dblp -scale 0.05 -addr "$faddr" \
    -data-dir "$workdir/data-follower" -follow "http://$addr" \
    >"$workdir/xqestd-follower.log" 2>&1 &
  follower_pid=$!
  "$workdir/xqbench" -targets "http://$addr,http://$faddr" \
    -duration "${serve_seconds}s" -estimators 8 -appenders 4 \
    -o "$workdir/serving-replicated.json"
  kill -INT "$follower_pid" && wait "$follower_pid" 2>/dev/null || true
  follower_pid=""
  kill -INT "$daemon_pid" && wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
else
  printf 'null\n' > "$workdir/serving.json"
  printf 'null\n' > "$workdir/serving-notrace.json"
  printf 'null\n' > "$workdir/serving-noshadow.json"
  for fsync in always interval off; do
    printf 'null\n' > "$workdir/durable-$fsync.json"
  done
  printf 'null\n' > "$workdir/serving-replicated.json"
fi

# Offline accuracy harness: q-error quantiles over seeded workloads
# (all-pairs + random twigs) on two built-in datasets. Cheap and
# deterministic, so it always runs.
echo "== accuracy harness: xqest accuracy on hier and dblp =="
go build -o "$workdir/xqest" ./cmd/xqest
"$workdir/xqest" -dataset hier -json accuracy > "$workdir/accuracy-hier.json"
"$workdir/xqest" -dataset dblp -scale 0.05 -json accuracy > "$workdir/accuracy-dblp.json"

{
  awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
    /^goos:/   { goos = $2 }
    /^goarch:/ { goarch = $2 }
    /^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
      ns[++count] = sprintf("    \"%s\": %s", name, $3)
      # allocs/op is the field preceding the "allocs/op" unit (its
      # position shifts when MB/s is reported).
      for (i = 4; i <= NF; i++)
        if ($i == "allocs/op")
          al[count] = sprintf("    \"%s\": %s", name, $(i-1))
    }
    END {
      printf "{\n"
      printf "  \"date\": \"%s\",\n", date
      printf "  \"goos\": \"%s\",\n", goos
      printf "  \"goarch\": \"%s\",\n", goarch
      printf "  \"cpu\": \"%s\",\n", cpu
      printf "  \"ns_per_op\": {\n"
      for (i = 1; i <= count; i++)
        printf "%s%s\n", ns[i], (i < count ? "," : "")
      printf "  },\n"
      printf "  \"allocs_per_op\": {\n"
      n = 0
      for (i = 1; i <= count; i++) if (i in al) n++
      j = 0
      for (i = 1; i <= count; i++) if (i in al) {
        j++
        printf "%s%s\n", al[i], (j < n ? "," : "")
      }
      printf "  },\n"
      printf "  \"serving\": "
    }
  ' "$workdir/micro.txt"
  cat "$workdir/serving.json"
  printf ",\n  \"serving_notrace\": "
  cat "$workdir/serving-notrace.json"
  printf ",\n  \"serving_noshadow\": "
  cat "$workdir/serving-noshadow.json"
  printf ",\n  \"serving_replicated\": "
  cat "$workdir/serving-replicated.json"
  printf ",\n  \"durable_serving\": {\n"
  printf "    \"always\": "
  cat "$workdir/durable-always.json"
  printf ",\n    \"interval\": "
  cat "$workdir/durable-interval.json"
  printf ",\n    \"off\": "
  cat "$workdir/durable-off.json"
  printf "  },\n"
  printf "  \"accuracy\": {\n"
  printf "    \"hier\": "
  cat "$workdir/accuracy-hier.json"
  printf ",\n    \"dblp\": "
  cat "$workdir/accuracy-dblp.json"
  printf "  }\n"
  printf "}\n"
} > "$out"

echo "wrote $out"
