#!/bin/sh
# metrics-lint: every EngineStats counter must be exported on
# GET /metrics and named in README.md's metric table, and every
# mrsl_engine_* name README.md mentions must be exported.
#
# The export half is structural: scripts/metricslint renders a zero
# EngineStats through the exact exporter mrslserve's /metrics handler
# calls (WriteEngineStatsMetrics) and fails if any field of the struct
# is missing from the output. The documentation half greps each exported
# name out of README.md, so adding a counter without documenting it (or
# renaming one without updating the table) fails ci. The reverse half
# greps every mrsl_engine_<name> out of README.md and looks it up in the
# exported list, so deleting a counter without dropping its row fails
# too; the bare prefix of the naming-rule sentence is skipped.
set -eu
cd "$(dirname "$0")/.."

names=$(go run ./scripts/metricslint) || {
    echo "metrics-lint: EngineStats export check failed" >&2
    exit 1
}

fail=0
for n in $names; do
    if ! grep -q "\`$n\`" README.md; then
        echo "metrics-lint: $n is exported on /metrics but missing from README.md's metric table" >&2
        fail=1
    fi
done
for n in $(grep -o 'mrsl_engine_[a-z0-9_]*' README.md | sort -u); do
    [ "$n" = mrsl_engine_ ] && continue
    if ! printf '%s\n' "$names" | grep -qx "$n"; then
        echo "metrics-lint: README.md names $n, which /metrics does not export" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1

count=$(printf '%s\n' "$names" | wc -l | tr -d ' ')
echo "metrics-lint: $count EngineStats metrics exported and documented"
