#!/bin/sh
# planner-check: guards query-serving latency across PRs. Compares the
# ns/op figures of the query benchmarks in a fresh run (published by
# `make bench-planner` into BENCH_planner.json) against the committed
# baseline (BENCH_planner_baseline.json); exits non-zero when any of
# them slowed down by more than the tolerance (percent, default 30).
# A benchmark absent from the baseline (e.g. freshly added) is skipped
# with a note; refresh the baseline with `make bench-baseline`.
#
# Usage: planner-check.sh <baseline.json> <current.json> [tolerance-pct]
set -eu

base=${1:?usage: planner-check.sh baseline.json current.json [tolerance-pct]}
cur=${2:?usage: planner-check.sh baseline.json current.json [tolerance-pct]}
tol=${3:-30}

BENCHES="BenchmarkQueryPlanner BenchmarkQuerySafeJoin BenchmarkQueryDissociated
BenchmarkQueryAdaptive/adaptive BenchmarkQueryAdversarial/adaptive"

if [ ! -f "$base" ]; then
	echo "planner-check: no baseline at $base; skipping"
	exit 0
fi
if [ ! -f "$cur" ]; then
	echo "planner-check: no current run at $cur" >&2
	exit 1
fi

# Pull one benchmark's ns/op figure out of a go-test -json log. The name
# and its measurements usually share one output line; tolerate the split
# form go test emits for sub-benchmarks too.
extract() {
	grep -o '"Output":"[^"]*"' "$1" | sed 's/^"Output":"//; s/"$//' |
		awk -v name="$2" '
			$1 ~ ("^" name "(-[0-9]+)?$") {
				for (i = 2; i <= NF; i++)
					if ($i ~ /^ns\/op/) { print $(i - 1); exit }
				pending = 1
				next
			}
			pending && /ns\/op/ {
				for (i = 2; i <= NF; i++)
					if ($i ~ /^ns\/op/) { print $(i - 1); exit }
			}
		'
}

status=0
for name in $BENCHES; do
	c=$(extract "$cur" "$name")
	if [ -z "$c" ]; then
		echo "planner-check: $name missing from current run" >&2
		status=1
		continue
	fi
	b=$(extract "$base" "$name")
	if [ -z "$b" ]; then
		echo "planner-check: $name has no baseline figure; skipping (refresh with make bench-baseline)"
		continue
	fi
	awk -v name="$name" -v b="$b" -v c="$c" -v tol="$tol" 'BEGIN {
		ceil = b * (100 + tol) / 100
		ok = (c <= ceil)
		printf "planner-check: %-28s baseline %12.0f ns/op  current %12.0f ns/op  ceiling %12.0f  %s\n",
			name, b, c, ceil, ok ? "ok" : "REGRESSED"
		exit ok ? 0 : 1
	}' || status=1
done
exit $status
