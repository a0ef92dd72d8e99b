#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload lib-highdeg --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, per-run result files and Chrome traces
# all stay under .bench_build/perfbench in the checkout. The build fails,
# and the script exits non-zero, when the repository's module is absent.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --out "$build" "$@"
