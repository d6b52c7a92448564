#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash perfbench/run.sh --workload local_mlp_train --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary, traces and result
# records.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The go command's own state (build cache, module cache, telemetry and
# config) stays inside the checkout too; there are no modules to fetch.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
