#!/usr/bin/env bash
# Builds and runs the solarcore benchmark. Run it from the root of a
# checkout:
#
#   bash bench/run.sh --workload miss-run --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1                 # every workload in turn
#   bash bench/run.sh compare a.jsonl b.jsonl  # two sets of run records
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout: the build cache, the binaries, the
# durable stores of the server workloads and the span files of a traced
# run. Without the repository around bench/ the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home" "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -root "$root" "$@"
