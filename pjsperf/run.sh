#!/usr/bin/env bash
# Builds the pjsperf benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the checkout root:
#
#	bash pjsperf/run.sh --workload preempt-ctc --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the go command's configuration and
# telemetry, and the binary all live under .bench_build/ in the checkout,
# so nothing is written outside it. The build fails, and the script exits
# non-zero without printing a result, when the simulator sources
# (../go.mod) are missing.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd pjsperf && go build -o "$build/pjsperf" .)
exec "$build/pjsperf" "$@"
