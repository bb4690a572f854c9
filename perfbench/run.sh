#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload oneshot --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it writes (the binary, the Go
# build cache, span files, exact counts) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# No cgo: the benchmark needs no C toolchain, and the build writes nothing
# outside the checkout.
export GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
