#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every run's scratch data stay under
# .bench_build/ in the checkout. Build output goes to standard error, so
# standard output carries only the benchmark's report.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
PERFBENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
PERFBENCH_SOURCE_SHA="$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
  LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_GIT_SHA PERFBENCH_SOURCE_SHA
exec "$out/perfbench" "$@"
