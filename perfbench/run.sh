#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload smallbank-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
