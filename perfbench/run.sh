#!/usr/bin/env bash
# Builds cmd/mrslserve and the benchmark program from this checkout, then
# runs one workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload derive_hot --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and scratch file stays under .bench_build/ in
# the checkout. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/mrslserve || ! -d internal ]]; then
	echo "perfbench: $root is not a checkout of the repository (no go.mod, cmd/mrslserve or internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config"
# The Go toolchain's caches, temporary files and per-user configuration
# (telemetry counters included) all go under .bench_build; the module
# needs nothing from the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOWORK=off TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache"

go build -o "$out/bin/mrslserve" ./cmd/mrslserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/mrslserve" -work "$out" "$@"
