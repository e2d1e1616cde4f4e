#!/usr/bin/env bash
# Builds the perfbench ledger from the sources of this checkout and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload storage --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout. Without the dmamem module one
# directory up, the build fails and the script exits non-zero before
# printing any result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its telemetry under the user config directory.
XDG_CONFIG_HOME="$build/config" go build -C perfbench -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
