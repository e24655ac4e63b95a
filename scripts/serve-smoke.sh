#!/bin/sh
# serve-smoke: the end-to-end serving gate of `make ci`. Builds mrslserve,
# learns a model from the checked-in matchmaking relation, boots the
# server on a kernel-assigned port, POSTs one derivation and one query,
# drives the live-evidence loop — register a dataset, query it, observe
# a delta, derive it, re-query, and check that a groupby and a topk served
# from the caches send no partial record — holds a count watch on a second
# dataset through one observation and the dataset's drop, runs one
# intensional join query
# (multipart sql= statement over two CSV fragments), checks the stream
# and stats endpoints answer, and finally SIGTERMs the server expecting
# a clean graceful drain. Exits non-zero on any failure.
set -eu

tmp=$(mktemp -d)
pid=""
wpid=""
cleanup() {
	[ -n "$wpid" ] && kill "$wpid" 2>/dev/null || true
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/mrslserve" ./cmd/mrslserve
go run ./cmd/mrsllearn -in testdata/matchmaking.csv -support 0.01 -out "$tmp/model.json"

"$tmp/mrslserve" -model "$tmp/model.json" -addr 127.0.0.1:0 -samples 200 -workers 4 >"$tmp/log" 2>&1 &
pid=$!

# boot_failed prints a diagnosis of a server that never came up. The
# common cause is a bind failure (port in use, permissions), which the
# server reports as "mrslserve: cannot bind ..." — call it out explicitly
# instead of leaving the reader to spot it in the log dump.
boot_failed() {
	if grep -q '^mrslserve: cannot bind ' "$tmp/log"; then
		echo "serve-smoke: server could not bind its address (is something else on the port?):"
		grep '^mrslserve: cannot bind ' "$tmp/log"
	else
		echo "serve-smoke: $1; full server log:"
	fi
	cat "$tmp/log"
	exit 1
}

addr=""
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^mrslserve: listening on //p' "$tmp/log" | head -n 1)
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || boot_failed "server died before announcing an address"
	sleep 0.1
	i=$((i + 1))
done
[ -n "$addr" ] || boot_failed "server never announced an address within 10s"

curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS -X POST --data-binary @testdata/matchmaking.csv "http://$addr/derive" >"$tmp/out.ndjson"

lines=$(wc -l <"$tmp/out.ndjson")
# 1 schema record + 17 tuples.
[ "$lines" -eq 18 ] || { echo "serve-smoke: got $lines NDJSON lines, want 18"; cat "$tmp/out.ndjson"; exit 1; }
grep -q '"kind":"block"' "$tmp/out.ndjson" || { echo "serve-smoke: no blocks in stream"; exit 1; }

curl -fsS -X POST --data-binary @testdata/matchmaking.csv \
	"http://$addr/query?op=count&where=age%3D20&explain=analyze&trace=1" >"$tmp/query.ndjson"
grep -q '"kind":"query"' "$tmp/query.ndjson" || { echo "serve-smoke: no query header record"; cat "$tmp/query.ndjson"; exit 1; }
grep -q '"kind":"count"' "$tmp/query.ndjson" || { echo "serve-smoke: no count record"; cat "$tmp/query.ndjson"; exit 1; }
grep -q '"kind":"summary"' "$tmp/query.ndjson" || { echo "serve-smoke: no summary record"; cat "$tmp/query.ndjson"; exit 1; }
# explain=analyze attaches measured timings to the summary's plan, and
# trace=1 appends the request's span record after it.
grep -q '"timing":{' "$tmp/query.ndjson" || { echo "serve-smoke: explain=analyze summary has no timing block"; cat "$tmp/query.ndjson"; exit 1; }
grep -q '"wall_ms":' "$tmp/query.ndjson" || { echo "serve-smoke: timing block has no wall_ms"; cat "$tmp/query.ndjson"; exit 1; }
grep -q '"kind":"trace"' "$tmp/query.ndjson" || { echo "serve-smoke: trace=1 produced no trace record"; cat "$tmp/query.ndjson"; exit 1; }

# Live evidence round trip: register the relation as a dataset, query
# it, apply one observation, and re-query — the re-query's plan must
# route the observed tuple through the exact conditioned tier.
sid=$(curl -fsS -X POST --data-binary @testdata/matchmaking.csv "http://$addr/datasets" \
	| sed 's/.*"id":"\([^"]*\)".*/\1/')
[ -n "$sid" ] || { echo "serve-smoke: dataset registration returned no id"; exit 1; }

curl -fsS -X POST "http://$addr/query?op=count&where=inc%3D50K&dataset=$sid" >"$tmp/pre.ndjson"
grep -q '"kind":"count"' "$tmp/pre.ndjson" || { echo "serve-smoke: no count record from dataset query"; cat "$tmp/pre.ndjson"; exit 1; }

# Tuple 0 (stream line 2, after the schema record) is "20 HS ? ?": its
# most probable income completion is consistent evidence by construction.
obsval=$(sed -n '2p' "$tmp/out.ndjson" | grep -o '"values":\[[^]]*\]' | head -n 1 | cut -d'"' -f8)
[ -n "$obsval" ] || { echo "serve-smoke: could not read tuple 0 income from the derive stream"; exit 1; }
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"dataset\":\"$sid\",\"observations\":[{\"index\":0,\"attr\":\"inc\",\"value\":\"$obsval\"}]}" \
	"http://$addr/observe" | grep -q '"kind":"observed"' || { echo "serve-smoke: observe failed"; exit 1; }

# Deriving the dataset streams its conditioned snapshot: the same 18
# lines, except that tuple 0 now carries its posterior block, not the
# batch stream's prior one.
curl -fsS -X POST "http://$addr/derive?dataset=$sid" >"$tmp/dsderive.ndjson"
dslines=$(wc -l <"$tmp/dsderive.ndjson")
[ "$dslines" -eq 18 ] || { echo "serve-smoke: dataset derive got $dslines NDJSON lines, want 18"; cat "$tmp/dsderive.ndjson"; exit 1; }
[ "$(sed -n '2p' "$tmp/dsderive.ndjson")" != "$(sed -n '2p' "$tmp/out.ndjson")" ] || {
	echo "serve-smoke: dataset derive streamed tuple 0's prior block, not its posterior"; sed -n '2p' "$tmp/dsderive.ndjson"; exit 1; }

curl -fsS -X POST "http://$addr/query?op=count&where=inc%3D50K&dataset=$sid" >"$tmp/post.ndjson"
grep -q '"observed":1' "$tmp/post.ndjson" || { echo "serve-smoke: re-query did not use the observed tier"; cat "$tmp/post.ndjson"; exit 1; }

# A groupby streams partial records only while its evaluation waits on
# inference. Posted a second time it is served from the caches, so the
# second response carries its final group records and no partial one.
curl -fsS -X POST "http://$addr/query?op=groupby&groupby=inc&dataset=$sid" >/dev/null
curl -fsS -X POST "http://$addr/query?op=groupby&groupby=inc&dataset=$sid" >"$tmp/groupby.ndjson"
grep '"kind":"group"' "$tmp/groupby.ndjson" | grep -q '"final":true' || {
	echo "serve-smoke: warm groupby sent no final group record"; cat "$tmp/groupby.ndjson"; exit 1; }
! grep -q '"partial":true' "$tmp/groupby.ndjson" || {
	echo "serve-smoke: warm groupby sent a partial record"; cat "$tmp/groupby.ndjson"; exit 1; }

# A topk reports partial rows only before a wave that waits on inference.
# The dataset derive and the groupbys above resolved every block of the
# dataset, so no wave of this topk starts a prefetch pool: it sends its
# final rows and no partial one.
curl -fsS -X POST "http://$addr/query?op=topk&k=2&where=inc%3D50K&dataset=$sid" >"$tmp/topk.ndjson"
grep '"kind":"row"' "$tmp/topk.ndjson" | grep -q '"final":true' || {
	echo "serve-smoke: warm topk sent no final row"; cat "$tmp/topk.ndjson"; exit 1; }
! grep -q '"partial":true' "$tmp/topk.ndjson" || {
	echo "serve-smoke: warm topk sent a partial record"; cat "$tmp/topk.ndjson"; exit 1; }

# Watch round trip: a count watch on a second dataset, held open by a
# background curl, sends its answer at version 0; an observation that
# moves the count re-sends it as a partial record stamped version 1, and
# dropping the dataset ends the stream with an "end" record.
wid=$(curl -fsS -X POST --data-binary @testdata/matchmaking.csv "http://$addr/datasets" \
	| sed 's/.*"id":"\([^"]*\)".*/\1/')
[ -n "$wid" ] || { echo "serve-smoke: second dataset registration returned no id"; exit 1; }
curl -fsS -N -X POST "http://$addr/query?op=count&where=inc%3D50K&dataset=$wid&watch=1" >"$tmp/watch.ndjson" &
wpid=$!
# watch_for PATTERN WHAT waits up to 10s for a watch line matching PATTERN.
watch_for() {
	i=0
	until grep -q "$1" "$tmp/watch.ndjson"; do
		[ $i -lt 100 ] || { echo "serve-smoke: watch stream never sent $2"; cat "$tmp/watch.ndjson"; exit 1; }
		sleep 0.1
		i=$((i + 1))
	done
}
watch_for '"version":0' "its initial count record"
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"dataset\":\"$wid\",\"observations\":[{\"index\":0,\"attr\":\"inc\",\"value\":\"$obsval\"}]}" \
	"http://$addr/observe" | grep -q '"kind":"observed"' || { echo "serve-smoke: watch dataset observe failed"; exit 1; }
watch_for '"partial":true.*"version":1' "a partial record at version 1 after the observation"
curl -fsS -X DELETE "http://$addr/datasets/$wid" >/dev/null
watch_for '"kind":"end"' "its end record after the drop"
wait "$wpid" || { echo "serve-smoke: watch curl failed"; cat "$tmp/watch.ndjson"; exit 1; }
wpid=""

# Intensional round trip: one SQL join query over HTTP, shipping both
# input fragments as multipart CSV files. The summary must carry the
# join plan block with the safety verdict.
cat >"$tmp/people.csv" <<'EOF'
age,edu,pid
20,HS,p1
20,BS,p1
30,?,p2
30,MS,p2
40,BS,p3
?,HS,p4
20,HS,?
40,?,p9
20,BS,p5
30,HS,p3
EOF
cat >"$tmp/finance.csv" <<'EOF'
pid,inc,nw
p1,?,100K
p2,100K,?
p3,50K,500K
p4,?,?
p5,100K,500K
EOF
curl -fsS -X POST \
	-F 'sql=from people join finance on pid=pid where age=20' \
	-F "people=@$tmp/people.csv" -F "finance=@$tmp/finance.csv" \
	"http://$addr/query?op=count" >"$tmp/sql.ndjson"
grep -q '"kind":"count"' "$tmp/sql.ndjson" || { echo "serve-smoke: no count record from sql join query"; cat "$tmp/sql.ndjson"; exit 1; }
grep -q '"join"' "$tmp/sql.ndjson" || { echo "serve-smoke: sql join query summary has no join plan"; cat "$tmp/sql.ndjson"; exit 1; }
grep -q '"verdict"' "$tmp/sql.ndjson" || { echo "serve-smoke: join plan has no safety verdict"; cat "$tmp/sql.ndjson"; exit 1; }

curl -fsS "http://$addr/stats" >"$tmp/stats.json"
# 12 offered inference requests: derive, batch query, pre-query, observe,
# dataset derive, re-query, two groupbys, topk, watch, watch observe, sql
# join query (dataset registration and drop run no inference and are not
# counted). The watched dataset is dropped, so one dataset remains.
grep -q '"requests":12' "$tmp/stats.json" || { echo "serve-smoke: stats did not count the requests"; cat "$tmp/stats.json"; exit 1; }
grep -q '"Observations":2' "$tmp/stats.json" || { echo "serve-smoke: stats did not count the observations"; cat "$tmp/stats.json"; exit 1; }
grep -q '"Datasets":1' "$tmp/stats.json" || { echo "serve-smoke: stats did not count the dataset"; cat "$tmp/stats.json"; exit 1; }

# Prometheus exposition: the per-endpoint request histogram must have
# counted the /query traffic above, the EngineStats counters must be
# exported as gauges, and build identity must be present. (/metrics is
# not admitted, so scraping never perturbs the "requests" count.)
curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt"
qcount=$(sed -n 's/^mrsl_http_request_seconds_count{path="\/query"} //p' "$tmp/metrics.txt")
[ -n "$qcount" ] && [ "$qcount" -ge 1 ] || { echo "serve-smoke: /metrics did not count the /query requests (got '$qcount')"; cat "$tmp/metrics.txt"; exit 1; }
grep -q '^mrsl_engine_queries ' "$tmp/metrics.txt" || { echo "serve-smoke: no EngineStats gauges on /metrics"; cat "$tmp/metrics.txt"; exit 1; }
grep -q '^mrsl_build_info{' "$tmp/metrics.txt" || { echo "serve-smoke: no build info on /metrics"; cat "$tmp/metrics.txt"; exit 1; }

# Graceful drain: SIGTERM must end the process cleanly (exit 0, drain
# farewell in the log) — the signal path the in-process tests can't reach.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
[ "$status" -eq 0 ] || { echo "serve-smoke: server exited $status on SIGTERM, want clean drain"; cat "$tmp/log"; exit 1; }
grep -q '^mrslserve: drained, bye$' "$tmp/log" || { echo "serve-smoke: no drain farewell after SIGTERM:"; cat "$tmp/log"; exit 1; }

echo "serve-smoke: ok ($lines lines from $addr, dataset $sid observed inc=$obsval, watch on $wid ended, drained clean)"
