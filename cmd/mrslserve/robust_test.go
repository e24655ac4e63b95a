package main

// Fail-soft serving tests: deadline-budgeted degradation, truncated
// derive streams, panic isolation, graceful drain, shed-on-overload,
// and watch unsubscription on client disconnect. Several tests arm the
// process-global fault-injection switchboard or flip a server into
// drain, so none of them call t.Parallel.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
)

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postQueryRecords(t *testing.T, ts *httptest.Server, params string, csvBody []byte) (int, []map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query?"+params, "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, []map[string]any{{"error": string(out)}}
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var r map[string]any
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	return resp.StatusCode, recs
}

// TestServeDeadlineBudgetDegrades: a query whose timeout_ms budget is
// already spent still answers 200 — flagged degraded:true with a sound
// [lo, hi] bracket containing the exact answer — and the same query
// without a budget stays bit-identical to a local reference.
func TestServeDeadlineBudgetDegrades(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	where := "age=20"
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryCount, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(context.Background(), rel, q, repro.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	code, recs := postQueryRecords(t, ts, "op=count&where="+url.QueryEscape(where)+"&timeout_ms=1", csvBody)
	if code != http.StatusOK {
		t.Fatalf("degraded query: status %d: %v", code, recs)
	}
	count := recs[1]
	if count["kind"] != "count" || count["degraded"] != true {
		t.Fatalf("count record = %v, want degraded:true", count)
	}
	lo, okLo := count["lo"].(float64)
	hi, okHi := count["hi"].(float64)
	if !okLo || !okHi {
		t.Fatalf("degraded count record misses [lo, hi]: %v", count)
	}
	if lo > want.Expected || hi < want.Expected {
		t.Errorf("exact expected %v outside degraded bounds [%v, %v]", want.Expected, lo, hi)
	}
	if count["expected"].(float64) != lo {
		t.Errorf("degraded point answer %v is not the bracket's lower side %v", count["expected"], lo)
	}
	summary := recs[len(recs)-1]
	if summary["kind"] != "summary" || summary["degraded"] != true || summary["degraded_tuples"].(float64) <= 0 {
		t.Errorf("summary = %v, want degraded with degraded_tuples > 0", summary)
	}

	st := getStats(t, ts)
	if st.Engine.Degraded == 0 || st.Engine.DeadlineMisses == 0 {
		t.Errorf("stats: degraded=%d deadline_misses=%d, want both > 0",
			st.Engine.Degraded, st.Engine.DeadlineMisses)
	}

	// Without a budget the very same server answers exactly.
	code, recs = postQueryRecords(t, ts, "op=count&where="+url.QueryEscape(where), csvBody)
	if code != http.StatusOK {
		t.Fatalf("follow-up query: status %d: %v", code, recs)
	}
	count = recs[1]
	if count["degraded"] != nil {
		t.Errorf("unbudgeted query flagged degraded: %v", count)
	}
	if count["expected"].(float64) != want.Expected {
		t.Errorf("unbudgeted expected = %v, want bit-identical %v", count["expected"], want.Expected)
	}
}

// TestServeWatchReportsDegradation: a watch whose per-evaluation budget
// is already spent pushes the records a batch query writes for a
// degraded answer — flagged degraded:true, with [lo, hi] brackets that
// contain an unbudgeted local evaluation's answer — for a count and for
// every groupby bucket, never the bracket's lower side passed off as
// exact.
func TestServeWatchReportsDegradation(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	id := registerDataset(t, ts.URL, csvBody)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	local := func(spec repro.QuerySpec) *repro.QueryResult {
		t.Helper()
		q, err := repro.CompileQuery(model.Schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(context.Background(), rel, q, repro.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	brackets := func(rec map[string]any, want float64) {
		t.Helper()
		lo, okLo := rec["lo"].(float64)
		hi, okHi := rec["hi"].(float64)
		if rec["degraded"] != true || !okLo || !okHi {
			t.Fatalf("watch record = %v, want degraded:true with [lo, hi]", rec)
		}
		if lo > want || hi < want {
			t.Errorf("exact answer %v outside the watch record's bracket [%v, %v]: %v", want, lo, hi, rec)
		}
	}

	where := "age=20"
	count := local(repro.QuerySpec{Op: repro.QueryCount, Where: where})
	ch := watchLines(t, ctx, ts.URL, "op=count&where="+url.QueryEscape(where)+"&dataset="+id+"&watch=1&timeout_ms=1")
	nextRecord(t, ch, "count watch head")
	rec := nextRecord(t, ch, "count watch record")
	if rec["kind"] != "count" || rec["partial"] != true || rec["version"] != 0.0 {
		t.Fatalf("count watch record = %v, want a partial count at version 0", rec)
	}
	brackets(rec, count.Expected)

	groupAttr := model.Schema.Attrs[0].Name
	hist := local(repro.QuerySpec{Op: repro.QueryGroupBy, GroupBy: groupAttr})
	ch = watchLines(t, ctx, ts.URL, "op=groupby&groupby="+url.QueryEscape(groupAttr)+"&dataset="+id+"&watch=1&timeout_ms=1")
	nextRecord(t, ch, "groupby watch head")
	for _, g := range hist.Groups {
		rec := nextRecord(t, ch, "groupby watch record")
		if rec["kind"] != "group" || rec["value"] != g.Label || rec["partial"] != true {
			t.Fatalf("groupby watch record = %v, want the partial %q bucket", rec, g.Label)
		}
		brackets(rec, g.Expected)
	}
}

// TestServeDeriveTruncates: a derive stream that outlives its budget
// ends with a terminal "truncated" record — a soft outcome, not a
// failure — and the lines before it are exact records.
func TestServeDeriveTruncates(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	// Slow each chain so a 1ms budget demonstrably cannot cover the
	// stream (an unthrottled matchmaking derivation can beat 1ms).
	if err := faultinject.Configure("gibbs.sweep=sleep:20ms/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	out := postDerive(t, ts, csvBody, "?timeout_ms=1")
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["kind"] != "truncated" || last["timeout_ms"].(float64) != 1 {
		t.Fatalf("terminal record = %v, want kind=truncated timeout_ms=1", last)
	}
	for _, line := range lines[:len(lines)-1] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if k := rec["kind"]; k != "schema" && k != "certain" && k != "block" {
			t.Fatalf("record before truncation has kind %v", k)
		}
	}
	if st := getStats(t, ts); st.Failed != 0 {
		t.Errorf("truncated stream counted as failure: failed=%d", st.Failed)
	}
}

// TestServeDeriveFirstRecordBeforeSlowChain: /derive flushes its first
// record at once, so the client reads it while the stream's multi-missing
// chain, slowed by the derive.chain fault, is still running — not when
// the response ends.
func TestServeDeriveFirstRecordBeforeSlowChain(t *testing.T) {
	model, rel, _ := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	body := repro.NewRelation(rel.Schema)
	// The matchmaking relation's t2 is complete; t1 misses two values.
	for _, tu := range []repro.Tuple{rel.Tuples[1], rel.Tuples[0]} {
		if err := body.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	var csvBody bytes.Buffer
	if err := repro.WriteCSV(&csvBody, body); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure("derive.chain=sleep:1s/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	resp, err := http.Post(ts.URL+"/derive", "text/csv", &csvBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for _, want := range []string{"schema", "certain"} {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec["kind"] != want {
			t.Fatalf("record kind %v, want %s: %s", rec["kind"], want, line)
		}
	}
	if n := srv.eng.Stats().GibbsComputed; n != 0 {
		t.Fatalf("the first record arrived only after the slow chain returned (%d chains done)", n)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(rest), `{"kind":"block","index":1,`) {
		t.Errorf("after the first record: %s, want the block of item 1", rest)
	}
	if n := srv.eng.Stats().GibbsComputed; n != 1 {
		t.Errorf("%d chains done after the stream, want 1", n)
	}
}

// TestServeDeriveFlushesBeforeSlowChain is the HTTP twin of derive's
// TestFlushBeforeSlowChain: the k items before a multi-missing tuple
// whose chain the derive.chain fault slows all reach the client while
// that chain runs, though they sit in the response buffer until the
// engine flushes it.
func TestServeDeriveFlushesBeforeSlowChain(t *testing.T) {
	model, rel, _ := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	const k = 5
	body := repro.NewRelation(rel.Schema)
	for _, tu := range rel.Tuples {
		if tu.IsComplete() && body.Len() < k {
			if err := body.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := body.Append(rel.Tuples[0]); err != nil { // t1 misses two values
		t.Fatal(err)
	}
	var csvBody bytes.Buffer
	if err := repro.WriteCSV(&csvBody, body); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure("derive.chain=sleep:1s/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	resp, err := http.Post(ts.URL+"/derive", "text/csv", &csvBody)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for i := -1; i < k; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if i >= 0 && (rec["kind"] != "certain" || rec["index"] != float64(i)) {
			t.Fatalf("line %d is %s, want the certain item %d", i+2, line, i)
		}
	}
	if n := srv.eng.Stats().GibbsComputed; n != 0 {
		t.Fatalf("the %d items before the slow chain arrived only after it returned (%d chains done)", k, n)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"kind":"block","index":%d,`, k); !strings.HasPrefix(string(rest), want) {
		t.Errorf("after the first %d items: %s, want the block of item %d", k, rest, k)
	}
}

// TestServeDeriveTruncatesPastBuffer: a /derive stream longer than its
// 64 KiB response buffer that a spent timeout_ms budget cuts short, while
// the derive.chain fault slows a chain, sends every line it emitted —
// whole item records in input order — then the truncated record, and
// with trace=1 the trace record last.
func TestServeDeriveTruncatesPastBuffer(t *testing.T) {
	model, rel, _ := matchmakingFixture(t)
	// 1,500 complete tuples, about 90 KB of NDJSON, then t1, which misses
	// two values, then complete tuples past the budget.
	body := repro.NewRelation(rel.Schema)
	var complete []repro.Tuple
	for _, tu := range rel.Tuples {
		if tu.IsComplete() {
			complete = append(complete, tu)
		}
	}
	for i := 0; i < 1510; i++ {
		tu := complete[i%len(complete)]
		if i == 1500 {
			tu = rel.Tuples[0]
		}
		if err := body.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	var csvBody bytes.Buffer
	if err := repro.WriteCSV(&csvBody, body); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure("derive.chain=sleep:600ms/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	for _, trace := range []bool{false, true} {
		ts := startServer(t, model) // cold caches, so t1's chain runs again
		query := "?timeout_ms=300"
		if trace {
			query += "&trace=1"
		}
		out := postDerive(t, ts, csvBody.Bytes(), query)
		if len(out) <= 64<<10 {
			t.Fatalf("trace=%v: %d bytes of NDJSON, want more than the 64 KiB buffer", trace, len(out))
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		terminal := []string{"truncated"}
		if trace {
			terminal = append(terminal, "trace")
		}
		items := lines[1 : len(lines)-len(terminal)]
		for i, kind := range terminal {
			var rec map[string]any
			if err := json.Unmarshal([]byte(lines[len(items)+1+i]), &rec); err != nil {
				t.Fatal(err)
			}
			if rec["kind"] != kind {
				t.Fatalf("trace=%v: record %d from the end is %v, want kind %s", trace, len(terminal)-i, rec, kind)
			}
		}
		if len(items) >= body.Len() {
			t.Fatalf("trace=%v: all %d items arrived; the budget cut nothing", trace, len(items))
		}
		for i, line := range items {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("trace=%v: item line %d: %v", trace, i, err)
			}
			if k := rec["kind"]; k != "certain" && k != "block" || rec["index"] != float64(i) {
				t.Fatalf("trace=%v: item line %d is %s, want the record of item %d", trace, i, line, i)
			}
		}
	}
}

// TestServeDeriveHandlerPanicMidStream: a panic on the handler goroutine
// partway through a /derive stream still ends the response with every
// line emitted before it, then the panic boundary's error record. The
// cache.storm fault panics inside the stream's cache lookup, outside the
// engine's recovery; on warm caches the stream starts no prefetch pool,
// so every lookup it counts is the stream's own.
func TestServeDeriveHandlerPanicMidStream(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	want := postDerive(t, ts, csvBody, "")
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")

	// The fifth lookup is item 9's: the fifth incomplete tuple.
	if err := faultinject.Configure("cache.storm=panic/5"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	resp, err := http.Post(ts.URL+"/derive", "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream panic: status %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["kind"] != "error" || !strings.Contains(last["error"].(string), "panic") {
		t.Fatalf("terminal record = %v, want the recovered-panic error record", last)
	}
	if got := len(lines) - 1; got != 10 {
		t.Errorf("%d lines before the error record, want the schema and items 0 to 8", got)
	}
	for i, line := range lines[:len(lines)-1] {
		if line != wantLines[i] {
			t.Fatalf("line %d before the panic differs:\ngot:  %s\nwant: %s", i, line, wantLines[i])
		}
	}
	if st := srv.panics.Load(); st != 1 {
		t.Errorf("server panics = %d, want 1", st)
	}
	faultinject.Disable()
	if got := postDerive(t, ts, csvBody, ""); !bytes.Equal(got, want) {
		t.Fatalf("stream after the panic differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeEnginePanicMidStream: with every vote computation panicking,
// a derive stream emits its exact prefix then a terminal error record,
// the process survives, and once the fault is disarmed the same server
// serves the full stream bit-identical to a local fault-free reference.
func TestServeEnginePanicMidStream(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	// Local fault-free reference stream.
	var want bytes.Buffer
	if err := deriveLocal(model, rel, repro.NewJSONLSink(&want, model.Schema)); err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(want.String()), "\n")

	if err := faultinject.Configure("derive.vote=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	resp, err := http.Post(ts.URL+"/derive", "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream panic flipped the status to %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["kind"] != "error" || !strings.Contains(last["error"].(string), "panic") {
		t.Fatalf("terminal record = %v, want a recovered-panic error record", last)
	}
	// Everything before the error is the exact prefix of the reference.
	for i, line := range lines[:len(lines)-1] {
		if line != wantLines[i] {
			t.Fatalf("pre-panic line %d differs:\ngot:  %s\nwant: %s", i, line, wantLines[i])
		}
	}

	st := getStats(t, ts)
	if st.Engine.PanicsRecovered == 0 {
		t.Error("engine recovered no panics")
	}
	if st.Failed == 0 {
		t.Error("panicking request not counted as failed")
	}

	// Disarmed, the same engine — same caches that saw the panic storm —
	// serves the complete stream bit for bit.
	faultinject.Disable()
	got := postDerive(t, ts, csvBody, "")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("post-recovery stream differs from reference:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestServeHandlerPanicRecovered: the ServeHTTP boundary converts a
// handler panic into a 500 (or a terminal error record mid-stream),
// counts it, and the server keeps serving.
func TestServeHandlerPanicRecovered(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	srv.mux.HandleFunc("GET /panic-before-write", func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	srv.mux.HandleFunc("GET /panic-mid-stream", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "{\"kind\":\"partial\"}\n")
		panic("handler exploded mid-stream")
	})

	resp, err := http.Get(ts.URL + "/panic-before-write")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "recovered panic") {
		t.Errorf("pre-write panic: status %d body %q, want 500 with recovered panic", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/panic-mid-stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || last["kind"] != "error" {
		t.Errorf("mid-stream panic: status %d last record %v, want 200 + error record", resp.StatusCode, last)
	}

	st := getStats(t, ts)
	if st.ServerPanics != 2 {
		t.Errorf("server_panics = %d, want 2", st.ServerPanics)
	}
	// The process, engine, and routes are untouched: inference still works.
	if out := postDerive(t, ts, csvBody, ""); len(out) == 0 {
		t.Error("derive after handler panics returned nothing")
	}
}

// TestServeGracefulDrain: beginDrain (what SIGTERM triggers) ends watch
// subscriptions with their "end" record, flips /healthz to 503, sheds
// new inference requests with 503 + Retry-After, and reports itself in
// /stats — while observability endpoints keep answering.
func TestServeGracefulDrain(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	id := registerDataset(t, ts.URL, csvBody)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	attr := model.Schema.Attrs[0].Name
	ch := watchLines(t, ctx, ts.URL, "op=count&where="+url.QueryEscape(attr+"="+model.Schema.Attrs[0].Domain[0])+
		"&dataset="+id+"&watch=1")
	if head := nextRecord(t, ch, "watch head"); head["kind"] != "query" {
		t.Fatalf("watch head = %v", head)
	}
	if first := nextRecord(t, ch, "first count"); first["kind"] != "count" {
		t.Fatalf("first watch record = %v", first)
	}
	_ = rel

	srv.beginDrain()

	// The subscriber is told the stream is over, then the stream closes.
	end := nextRecord(t, ch, "drain end record")
	if end["kind"] != "end" || end["reason"] != "server draining" {
		t.Fatalf("end record = %v, want server draining", end)
	}
	if _, ok := <-ch; ok {
		t.Error("watch stream still open after drain end record")
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hzBody), "draining") {
		t.Errorf("healthz while draining: status %d body %q, want 503 draining", hz.StatusCode, hzBody)
	}

	resp, err := http.Post(ts.URL+"/derive", "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("derive while draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response misses Retry-After")
	}

	st := getStats(t, ts)
	if !st.Draining || st.Shed == 0 {
		t.Errorf("stats: draining=%v shed=%d, want draining with shed > 0", st.Draining, st.Shed)
	}
}

// TestServeShedAfterMisses: once consecutive requests miss their
// deadline budget, new inference requests are shed with 503 — except a
// once-per-second half-open probe, which lets a clean completion lift
// the shed again.
func TestServeShedAfterMisses(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 0)
	srv.shedAfter = 1
	srv.lastProbe.Store(time.Now().UnixNano()) // close the probe window for determinism

	where := url.QueryEscape("age=20")
	code, recs := postQueryRecords(t, ts, "op=count&where="+where+"&timeout_ms=1", csvBody)
	if code != http.StatusOK || recs[1]["degraded"] != true {
		t.Fatalf("miss-provoking query: status %d records %v", code, recs)
	}

	// The streak is open and the probe window shut: shed.
	code, recs = postQueryRecords(t, ts, "op=count&where="+where, csvBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query under sustained misses: status %d (%v), want 503", code, recs)
	}
	if st := getStats(t, ts); st.Shed == 0 {
		t.Errorf("stats: shed=%d, want > 0", st.Shed)
	}

	// After the probe window reopens, one clean request is admitted and
	// resets the streak; traffic flows again.
	time.Sleep(1100 * time.Millisecond)
	code, recs = postQueryRecords(t, ts, "op=count&where="+where, csvBody)
	if code != http.StatusOK {
		t.Fatalf("probe request: status %d (%v), want 200", code, recs)
	}
	code, _ = postQueryRecords(t, ts, "op=count&where="+where, csvBody)
	if code != http.StatusOK {
		t.Fatalf("request after clean probe: status %d, want 200 (shed lifted)", code)
	}
}

// TestServeWatchDisconnectUnsubscribes: a client that vanishes during an
// observe burst is unsubscribed cleanly — the engine's watcher gauge
// returns to zero.
func TestServeWatchDisconnectUnsubscribes(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts, _ := startServerInflight(t, model, 0)
	id := registerDataset(t, ts.URL, csvBody)
	index, attr, value := firstObservation(t, model, rel)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	groupAttr := model.Schema.Attrs[0].Name
	ch := watchLines(t, ctx, ts.URL, "op=groupby&groupby="+url.QueryEscape(groupAttr)+"&dataset="+id+"&watch=1")
	nextRecord(t, ch, "watch head")

	waitGauge := func(want int64, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st := getStats(t, ts); st.Engine.Watchers == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("watchers gauge never reached %d (%s)", want, what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitGauge(1, "after subscribe")

	// Disconnect in the middle of an observe burst.
	obs := `{"dataset":"` + id + `","observations":[{"index":` +
		strconv.Itoa(index) + `,"attr":"` + attr + `","value":"` + value + `"}]}`
	if code, body := postObserve(t, ts.URL, obs); code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", code, body)
	}
	cancel()
	postObserve(t, ts.URL, obs) // noop delta, but the burst keeps arriving

	waitGauge(0, "after client disconnect")
}
