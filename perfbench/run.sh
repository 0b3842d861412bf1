#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig2-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, per-run result records
# and span files. The build needs the repository's root module next to this
# directory, so outside a full checkout it fails before anything runs.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
