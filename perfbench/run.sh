#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, temporary model files
# and the traced runs' span files. The build never reaches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -buildvcs=false -o "$out/perfbench.$$" .) >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
