#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing the
# arguments through:
#
#   bash perfbench/run.sh --workload serve-curate --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache and scratch space, the binary,
# and each run's durable server state (removed when the run ends).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --data "$out" "$@"
