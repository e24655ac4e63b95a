package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// serveOptions are the derivation options under test. Chains are
// content-seeded, so the output is identical between the server's
// long-lived engine and a fresh local one.
func serveOptions() repro.DeriveOptions {
	return repro.DeriveOptions{
		Method:  repro.BestAveraged(),
		Workers: 4,
		Gibbs: repro.GibbsOptions{
			Samples: 300, BurnIn: 30, Seed: 11, Method: repro.BestAveraged(),
		},
	}
}

// deriveLocal derives rel into sink on a fresh engine with the server's
// options: the served stream's reference, with no HTTP involved.
func deriveLocal(model *repro.Model, rel *repro.Relation, sink repro.Sink) error {
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		return err
	}
	return eng.Derive(context.Background(), rel, repro.Pools{}, sink)
}

// matchmakingFixture renders the paper's matchmaking relation to CSV and
// learns a model from the CSV-read form, exactly as a real deployment
// (mrsllearn on a CSV file) would — so the model's schema is the inferred
// one the server validates requests against.
func matchmakingFixture(t testing.TB) (*repro.Model, *repro.Relation, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := repro.WriteCSV(&buf, relation.Matchmaking()); err != nil {
		t.Fatal(err)
	}
	csvBody := buf.Bytes()
	rel, err := repro.ReadCSV(bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	model, err := repro.Learn(rel, repro.LearnOptions{SupportThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return model, rel, csvBody
}

func startServer(t *testing.T, model *repro.Model) *httptest.Server {
	ts, _ := startServerInflight(t, model, 0)
	return ts
}

func startServerInflight(t *testing.T, model *repro.Model, maxInflight int) (*httptest.Server, *server) {
	t.Helper()
	srv, err := newServer(model, serveOptions(), maxInflight)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv) // random port
	t.Cleanup(ts.Close)
	return ts, srv
}

func postDerive(t *testing.T, ts *httptest.Server, body []byte, query string) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+"/derive"+query, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /derive: status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	return out
}

// TestServeDeriveEndToEnd spins the HTTP server on a random port, POSTs
// the matchmaking relation, and asserts the streamed NDJSON is
// byte-identical to rendering repro.Derive's output through the same
// JSONL sink — the serving path adds transport, not semantics.
func TestServeDeriveEndToEnd(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	got := postDerive(t, ts, csvBody, "")

	// Reference 1: the same stream rendered locally, no HTTP involved.
	var want bytes.Buffer
	if err := deriveLocal(model, rel, repro.NewJSONLSink(&want, model.Schema)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served NDJSON differs from local derivation:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// Reference 2: the materialized repro.Derive database; the NDJSON
	// block records must carry exactly its blocks, bit-identical
	// probabilities included.
	db, err := repro.Derive(model, rel, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Kind string `json:"kind"`
		Alts []struct {
			Values []string `json:"values"`
			P      float64  `json:"p"`
		} `json:"alts"`
	}
	var certain, blocks int
	for _, line := range strings.Split(strings.TrimSpace(string(got)), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch r.Kind {
		case "schema":
		case "certain":
			certain++
		case "block":
			b := db.Blocks[blocks]
			if len(r.Alts) != len(b.Alts) {
				t.Fatalf("block %d has %d alternatives, want %d", blocks, len(r.Alts), len(b.Alts))
			}
			for k, a := range r.Alts {
				if a.P != b.Alts[k].Prob {
					t.Fatalf("block %d alt %d probability %v, want bit-identical %v",
						blocks, k, a.P, b.Alts[k].Prob)
				}
			}
			blocks++
		default:
			t.Fatalf("unexpected record kind %q", r.Kind)
		}
	}
	if certain != len(db.Certain) || blocks != len(db.Blocks) {
		t.Fatalf("streamed %d certain + %d blocks, want %d + %d",
			certain, blocks, len(db.Certain), len(db.Blocks))
	}
}

// TestServeRepeatedRequestsShareCaches posts the same relation twice and
// checks that the long-lived engine answers the second request from its
// caches with a byte-identical stream.
func TestServeRepeatedRequestsShareCaches(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	first := postDerive(t, ts, csvBody, "")
	second := postDerive(t, ts, csvBody, "?workers=1")
	if !bytes.Equal(first, second) {
		t.Fatal("second (cache-served, differently sharded) request is not byte-identical to the first")
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Failed != 0 {
		t.Errorf("stats: requests=%d failed=%d, want 2/0", st.Requests, st.Failed)
	}
	if st.Engine.Streams != 2 {
		t.Errorf("stats: engine streams=%d, want 2", st.Engine.Streams)
	}
	// Both requests served the same tuples, but distinct patterns were
	// inferred only once across the engine's lifetime.
	if st.Engine.SingleTuples != 2*st.Engine.VotesComputed || st.Engine.VoteHitRate() != 0.5 {
		t.Errorf("vote cache did not dedup across requests: %+v", st.Engine)
	}
	if st.Engine.GibbsComputed == 0 || st.Engine.MultiTuples != 2*st.Engine.GibbsComputed {
		t.Errorf("gibbs cache did not dedup across requests: %+v", st.Engine)
	}
}

// TestServeQueryEndpoint posts a count and a topk query and checks the
// streamed NDJSON against evaluating the same query on a fresh local
// engine with the same options — the serving path adds transport, not
// semantics — and that the summary reports genuine pruning.
func TestServeQueryEndpoint(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	post := func(params string) []map[string]any {
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
			t.Fatalf("POST /query: status %d: %s", resp.StatusCode, out)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
		}
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			var r map[string]any
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			recs = append(recs, r)
		}
		return recs
	}

	attr := model.Schema.Attrs[0]
	where := attr.Name + "=" + attr.Domain[0]

	// Local reference on a fresh engine with the same options.
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

	recs := post("op=count&where=" + url.QueryEscape(where))
	if recs[0]["kind"] != "query" || recs[0]["op"] != "count" {
		t.Fatalf("first record = %v, want query/count header", recs[0])
	}
	count := recs[1]
	if count["kind"] != "count" || count["expected"].(float64) != want.Expected {
		t.Errorf("count record = %v, want expected %v (bit-identical)", count, want.Expected)
	}
	summary := recs[len(recs)-1]
	if summary["kind"] != "summary" {
		t.Fatalf("last record = %v, want summary", summary)
	}
	if summary["pruned"].(float64) == 0 {
		t.Errorf("selective query pruned nothing: %v", summary)
	}

	recs = post("op=topk&k=3&where=" + url.QueryEscape(where))
	var rows int
	for _, r := range recs {
		if r["kind"] == "row" && r["final"] == true {
			rows++
			if len(r["values"].([]any)) != model.Schema.NumAttrs() {
				t.Errorf("row values %v do not cover the schema", r["values"])
			}
		}
	}
	if rows == 0 || rows > 3 {
		t.Errorf("topk streamed %d final rows, want 1..3", rows)
	}
	summary = recs[len(recs)-1]
	if summary["kind"] != "summary" || summary["plan"] == nil {
		t.Errorf("topk summary missing the plan: %v", summary)
	}

	// Bad queries are rejected up front with 400.
	for _, params := range []string{"op=explode", "op=count", "op=count&where=bogus%3D1", "op=topk&where=x&k=banana"} {
		resp, err := http.Post(ts.URL+"/query?"+params, "text/csv", bytes.NewReader(csvBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /query?%s: status %d, want 400", params, resp.StatusCode)
		}
	}
}

// TestServeQueryStreamsIncrementally checks the incremental NDJSON
// contract of topk and groupby: partial records go out only while the
// evaluation waits on inference and precede the final ones, a query
// served from the caches sends only its final records, the final records
// agree with a buffered evaluation on a fresh local engine, and the
// summary carries the plan and bound counters.
func TestServeQueryStreamsIncrementally(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	post := func(params string) []map[string]any {
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
			t.Fatalf("POST /query: status %d: %s", resp.StatusCode, out)
		}
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			var r map[string]any
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			recs = append(recs, r)
		}
		return recs
	}

	// A cold groupby whose prefetch items all panic before they claim
	// computes every block inline, and reports the histogram folded so
	// far before each computation: partial group records must appear
	// before the final histogram.
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	attr := model.Schema.Attrs[0].Name
	recs := post("op=groupby&groupby=" + url.QueryEscape(attr))
	faultinject.Disable()
	var partials, finals int
	lastPartial, firstFinal := -1, -1
	finalGroups := map[string]float64{}
	for i, r := range recs {
		switch {
		case r["kind"] == "group" && r["partial"] == true:
			partials++
			lastPartial = i
		case r["kind"] == "group" && r["final"] == true:
			finals++
			if firstFinal < 0 {
				firstFinal = i
			}
			finalGroups[r["value"].(string)] = r["expected"].(float64)
		}
	}
	if partials == 0 {
		t.Fatalf("groupby streamed no partial records:\n%v", recs)
	}
	if finals != model.Schema.Attrs[0].Card() {
		t.Fatalf("groupby streamed %d final groups, want %d", finals, model.Schema.Attrs[0].Card())
	}
	if lastPartial > firstFinal {
		t.Fatalf("partial record at %d after final record at %d", lastPartial, firstFinal)
	}
	if recs[len(recs)-1]["kind"] != "summary" {
		t.Fatalf("last record is not the summary: %v", recs[len(recs)-1])
	}

	// The final histogram is bit-identical to a buffered evaluation on a
	// fresh engine with the same options.
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryGroupBy, GroupBy: attr})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(context.Background(), rel, q, repro.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range want.Groups {
		if got, ok := finalGroups[g.Label]; !ok || got != g.Expected {
			t.Errorf("final group %q = %v, want bit-identical %v", g.Label, got, g.Expected)
		}
	}

	// The same groupby again is served from the caches: it never waits on
	// inference, so it sends its final records and no partial one.
	recs = post("op=groupby&groupby=" + url.QueryEscape(attr))
	finals = 0
	for _, r := range recs {
		switch {
		case r["kind"] == "group" && r["partial"] == true:
			t.Fatalf("warm groupby streamed a partial record %v:\n%v", r, recs)
		case r["kind"] == "group" && r["final"] == true:
			finals++
		}
	}
	if finals != model.Schema.Attrs[0].Card() {
		t.Fatalf("warm groupby streamed %d final groups, want %d", finals, model.Schema.Attrs[0].Card())
	}

	// TopK: partial row snapshots stream ahead of the finals.
	recs = post("op=topk&k=4&where=" + url.QueryEscape(attr+"!="+model.Schema.Attrs[0].Domain[0]))
	var rowPartials, rowFinals int
	for _, r := range recs {
		switch {
		case r["kind"] == "row" && r["partial"] == true:
			rowPartials++
		case r["kind"] == "row" && r["final"] == true:
			rowFinals++
		}
	}
	if rowFinals == 0 || rowFinals > 4 {
		t.Fatalf("topk streamed %d final rows, want 1..4", rowFinals)
	}
	if rowPartials == 0 {
		t.Fatalf("topk streamed no partial rows:\n%v", recs)
	}
	summary := recs[len(recs)-1]
	if summary["kind"] != "summary" {
		t.Fatalf("last record is not the summary: %v", summary)
	}
	if _, ok := summary["bound_refuted"]; !ok {
		t.Errorf("summary missing bound counters: %v", summary)
	}
	plan, ok := summary["plan"].(map[string]any)
	if !ok || plan["tiers"] == nil {
		t.Errorf("summary missing plan tiers: %v", summary)
	}
}

// TestServeTopKPartialsSendOnlyChangedRanks checks that streamed topk
// partials follow the watch's per-rank rule: a progress report re-sends
// only the ranks whose row moved, so no partial row equals the one last
// sent at its rank, and the final rows still follow.
func TestServeTopKPartialsSendOnlyChangedRanks(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	// A cold topk whose prefetch items all panic before they claim
	// computes every block inline, and reports the rows held so far before
	// each computation.
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	attr := model.Schema.Attrs[0]
	code, recs := postQueryRecords(t, ts, "op=topk&k=4&where="+url.QueryEscape(attr.Name+"!="+attr.Domain[0]), csvBody)
	faultinject.Disable()
	if code != http.StatusOK {
		t.Fatalf("cold topk: status %d: %v", code, recs)
	}
	var partials, finals int
	lastAt := map[float64]map[string]any{}
	for _, r := range recs {
		switch {
		case r["kind"] == "row" && r["partial"] == true:
			partials++
			rank := r["rank"].(float64)
			if reflect.DeepEqual(r, lastAt[rank]) {
				t.Errorf("partial row %v re-sent unchanged at its rank", r)
			}
			lastAt[rank] = r
		case r["kind"] == "row" && r["final"] == true:
			finals++
		}
	}
	if partials == 0 {
		t.Fatalf("cold topk streamed no partial rows:\n%v", recs)
	}
	if finals == 0 || finals > 4 {
		t.Fatalf("topk streamed %d final rows, want 1..4", finals)
	}
}

// TestServeAdmissionControl fills the admission semaphore and checks that
// the next request is rejected with 429 + Retry-After instead of queuing,
// and that /stats surfaces the accepted/rejected split.
func TestServeAdmissionControl(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts, srv := startServerInflight(t, model, 1)

	first := postDerive(t, ts, csvBody, "") // take the measure of a served request
	if len(first) == 0 {
		t.Fatal("admitted request returned nothing")
	}

	srv.slots <- struct{}{} // occupy the only slot
	for _, path := range []string{"/derive", "/query?op=count&where=x"} {
		resp, err := http.Post(ts.URL+path, "text/csv", bytes.NewReader(csvBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("POST %s while saturated: status %d, want 429", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s while saturated: missing Retry-After", path)
		}
	}
	<-srv.slots

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// Offered = accepted + rejected: the rejected requests still count as
	// offered load, so the split always adds up.
	if st.Requests != 3 || st.Accepted != 1 || st.Rejected != 2 {
		t.Errorf("stats: requests=%d accepted=%d rejected=%d, want 3 = 1 + 2",
			st.Requests, st.Accepted, st.Rejected)
	}

	// The slot is free again: the server admits new work.
	second := postDerive(t, ts, csvBody, "")
	if !bytes.Equal(first, second) {
		t.Error("request after saturation is not byte-identical to the first")
	}
}

// TestServeRejectsBadInput covers the 4xx paths: malformed CSV, labels
// outside the model's domains, bad pool parameters, wrong method.
func TestServeRejectsBadInput(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	post := func(body, query string) int {
		resp, err := http.Post(ts.URL+"/derive"+query, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post("age,edu\n20,HS\n", ""); code != http.StatusBadRequest {
		t.Errorf("truncated header: status %d, want 400", code)
	}
	if code := post("age,edu,inc,nw\n99,HS,50K,100K\n", ""); code != http.StatusBadRequest {
		t.Errorf("out-of-domain label: status %d, want 400", code)
	}
	if code := post(string(csvBody), "?workers=banana"); code != http.StatusBadRequest {
		t.Errorf("bad pool parameter: status %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/derive")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /derive: status %d, want 405", resp.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	body, _ := io.ReadAll(hz.Body)
	if hz.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: status %d body %q", hz.StatusCode, body)
	}
}

// SPJ join-input fixtures: the matchmaking schema (age, edu, inc, nw)
// split into two relations under their own headers, joined on a pid key
// the model does not know. p1 is shared by two people rows and its
// finance tuple is missing inc, so inc-dependent plans are unsafe; p9
// dangles and one people row has a missing foreign key.
const (
	servePeopleCSV = `age,edu,pid
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
`
	serveFinanceCSV = `pid,inc,nw
p1,?,100K
p2,100K,?
p3,50K,500K
p4,?,?
p5,100K,500K
`
)

// spjReference evaluates the statement locally on a fresh engine with
// the server's options, from the same CSV inputs.
func spjReference(t *testing.T, model *repro.Model, stmt string, spec repro.QuerySpec) *repro.QueryResult {
	t.Helper()
	st, err := repro.ParseSPJ(stmt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*repro.Relation{}
	for name, csv := range map[string]string{"people": servePeopleCSV, "finance": serveFinanceCSV} {
		rel, err := repro.ReadCSV(strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = rel
	}
	spjSpec, err := st.Bind(inputs, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	spj, err := repro.CompileSPJ(model.Schema, spjSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), spj, spj.Query(), repro.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// postSQL posts a multipart /query with an sql field and the named CSV
// file fields (or plain form values mapping relations to dataset ids)
// and decodes the NDJSON records.
func postSQL(t *testing.T, ts *httptest.Server, params string, fields, files map[string]string) (int, []map[string]any) {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for name, val := range fields {
		if err := mw.WriteField(name, val); err != nil {
			t.Fatal(err)
		}
	}
	for name, csv := range files {
		fw, err := mw.CreateFormFile(name, name+".csv")
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(fw, csv)
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/query"+params, mw.FormDataContentType(), &body)
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

// TestServeSQLQuery covers the intensional /query path end to end:
// multipart join inputs, bit-identity with a local SPJ evaluation,
// dissociated exists records with bounds, projected rows in the answer
// schema, and the join/safety block of the summary.
func TestServeSQLQuery(t *testing.T) {
	model, _, _ := matchmakingFixture(t)
	ts := startServer(t, model)
	files := map[string]string{"people": servePeopleCSV, "finance": serveFinanceCSV}

	// Expected count, bit-identical to the local reference.
	stmt := "from people join finance on pid=pid where age=20"
	code, recs := postSQL(t, ts, "?op=count", map[string]string{"sql": stmt}, files)
	if code != http.StatusOK {
		t.Fatalf("sql count: status %d: %v", code, recs)
	}
	head := recs[0]
	if head["kind"] != "query" || head["sql"] != stmt {
		t.Fatalf("head record = %v, want kind=query with the sql statement", head)
	}
	want := spjReference(t, model, stmt, repro.QuerySpec{Op: repro.QueryCount})
	if recs[1]["kind"] != "count" || recs[1]["expected"].(float64) != want.Expected {
		t.Errorf("count record = %v, want bit-identical expected %v", recs[1], want.Expected)
	}
	summary := recs[len(recs)-1]
	plan, _ := summary["plan"].(map[string]any)
	if plan == nil || plan["join"] == nil {
		t.Fatalf("summary misses the join plan: %v", summary)
	}

	// Unsafe exists: p1 is shared and missing inc, so the record is
	// flagged dissociated and carries the sound interval.
	stmt = "from people join finance on pid=pid where inc=100K"
	code, recs = postSQL(t, ts, "?op=exists", map[string]string{"sql": stmt}, files)
	if code != http.StatusOK {
		t.Fatalf("sql exists: status %d: %v", code, recs)
	}
	if safe, ok := recs[0]["safe"].(bool); !ok || safe {
		t.Errorf("head record = %v, want safe=false", recs[0])
	}
	want = spjReference(t, model, stmt, repro.QuerySpec{Op: repro.QueryExists})
	ex := recs[1]
	if ex["kind"] != "exists" || ex["dissociated"] != true {
		t.Fatalf("exists record = %v, want dissociated=true", ex)
	}
	if ex["p"].(float64) != want.Prob {
		t.Errorf("exists p = %v, want bit-identical %v", ex["p"], want.Prob)
	}
	lo, hasLo := ex["lo"].(float64)
	hi, hasHi := ex["hi"].(float64)
	if !hasLo || !hasHi || !(lo <= hi) {
		t.Errorf("exists record misses the [lo, hi] interval: %v", ex)
	}
	summary = recs[len(recs)-1]
	if summary["dissociated"] != true || summary["bounds"] == nil {
		t.Errorf("summary misses dissociation: %v", summary)
	}
	plan, _ = summary["plan"].(map[string]any)
	join, _ := plan["join"].(map[string]any)
	if join == nil || join["safe"] != false || join["verdict"] == nil {
		t.Errorf("summary join block = %v, want unsafe verdict", join)
	}

	// Projection answers in the answer schema: one value per row.
	stmt = "select edu from people join finance on pid=pid where inc=100K"
	code, recs = postSQL(t, ts, "?op=topk&k=3", map[string]string{"sql": stmt}, files)
	if code != http.StatusOK {
		t.Fatalf("sql projection: status %d: %v", code, recs)
	}
	want = spjReference(t, model, stmt, repro.QuerySpec{Op: repro.QueryTopK, K: 3})
	var finals []map[string]any
	for _, r := range recs {
		if r["kind"] == "row" && r["final"] == true {
			finals = append(finals, r)
		}
	}
	if len(finals) != len(want.Rows) {
		t.Fatalf("projection streamed %d final rows, want %d", len(finals), len(want.Rows))
	}
	for i, r := range finals {
		vals := r["values"].([]any)
		if len(vals) != 1 {
			t.Errorf("projected row %d has %d values, want 1 (edu)", i, len(vals))
		}
		if r["p"].(float64) != want.Rows[i].Prob {
			t.Errorf("projected row %d p = %v, want bit-identical %v", i, r["p"], want.Rows[i].Prob)
		}
	}

	// The engine counted the dissociated answers.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.QueriesDissociated == 0 {
		t.Errorf("stats: engine QueriesDissociated = 0 after dissociated answers")
	}
}

// TestServeSQLDatasetInputs registers the join inputs as schema=own
// datasets and runs the same statement with <name>=<id> mappings — no
// multipart upload — plus the guardrails: join-input datasets reject
// /derive, single-relation /query, and /observe.
func TestServeSQLDatasetInputs(t *testing.T) {
	model, _, _ := matchmakingFixture(t)
	ts := startServer(t, model)

	register := func(csv string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/datasets?schema=own", "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rec map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || rec["schema"] != "own" {
			t.Fatalf("register schema=own: status %d record %v", resp.StatusCode, rec)
		}
		return rec["id"].(string)
	}
	peopleID := register(servePeopleCSV)
	financeID := register(serveFinanceCSV)

	stmt := "from people join finance on pid=pid where age=20"
	params := "?op=count&sql=" + url.QueryEscape(stmt) +
		"&people=" + peopleID + "&finance=" + financeID
	resp, err := http.Post(ts.URL+"/query"+params, "text/csv", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sql over datasets: status %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var count map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &count); err != nil {
		t.Fatal(err)
	}
	want := spjReference(t, model, stmt, repro.QuerySpec{Op: repro.QueryCount})
	if count["expected"].(float64) != want.Expected {
		t.Errorf("dataset-input count = %v, want bit-identical %v", count["expected"], want.Expected)
	}

	// Join-input datasets serve sql= queries only.
	for _, req := range []struct{ path, want string }{
		{"/derive?dataset=" + peopleID, "400"},
		{"/query?op=count&where=age%3D20&dataset=" + peopleID, "400"},
	} {
		resp, err := http.Post(ts.URL+req.path, "text/csv", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", req.path, resp.StatusCode)
		}
	}
	obs := `{"dataset":"` + financeID + `","observations":[{"index":0,"attr":"inc","value":"100K"}]}`
	resp2, err := http.Post(ts.URL+"/observe", "application/json", strings.NewReader(obs))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("observe on join input: status %d, want 409", resp2.StatusCode)
	}
}

// TestServeSQLRejectsBadStatements covers the intensional 4xx paths.
func TestServeSQLRejectsBadStatements(t *testing.T) {
	model, _, _ := matchmakingFixture(t)
	ts := startServer(t, model)
	files := map[string]string{"people": servePeopleCSV, "finance": serveFinanceCSV}

	cases := []struct {
		name   string
		params string
		fields map[string]string
		files  map[string]string
	}{
		{"parse error", "?op=count", map[string]string{"sql": "join finance on a=b"}, files},
		{"missing input", "?op=count", map[string]string{"sql": "from people join towns on pid=pid where age=20"}, files},
		{"multipart without sql", "?op=count", map[string]string{}, files},
		{"sql with dataset", "?op=count&dataset=ds1", map[string]string{"sql": "from people where age=20"}, files},
		{"sql with watch", "?op=count&watch=1", map[string]string{"sql": "from people where age=20"}, files},
		{"double where", "?op=count&where=age%3D20", map[string]string{"sql": "from people join finance on pid=pid where age=20"}, files},
	}
	for _, tc := range cases {
		code, recs := postSQL(t, ts, tc.params, tc.fields, tc.files)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", tc.name, code, recs)
		}
	}
}

// TestServeConcurrentQueriesShareEnvelopes pins the cross-query envelope
// sharing acceptance: after one bounded query warms the shared interval
// cache, two concurrent overlapping queries both serve their
// multi-missing envelopes from it — each summary reports >0 envelope
// hits and 0 misses — and /stats' engine block counts both hits and
// misses.
func TestServeConcurrentQueriesShareEnvelopes(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)

	adaptiveOf := func(out []byte) map[string]any {
		t.Helper()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var summary map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
			t.Fatalf("bad summary line %q: %v", lines[len(lines)-1], err)
		}
		plan, _ := summary["plan"].(map[string]any)
		if plan == nil {
			t.Fatalf("summary has no plan: %v", summary)
		}
		adaptive, _ := plan["adaptive"].(map[string]any)
		if adaptive == nil {
			t.Fatalf("bounded plan has no adaptive block: %v", plan)
		}
		return adaptive
	}
	post := func(params string) []byte {
		resp, err := http.Post(ts.URL+"/query?"+params, "text/csv", bytes.NewReader(csvBody))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST /query?%s: status %d: %s", params, resp.StatusCode, out)
			return nil
		}
		return out
	}

	// Warm: a bounded count whose predicate constrains an attribute the
	// multi-missing tuples are missing, so envelopes are computed (cold
	// misses) and stored in the shared cache.
	warm := adaptiveOf(post("op=count&minprob=0.5&where=" + url.QueryEscape("inc=50K")))
	if warm["envelope_misses"].(float64) == 0 {
		t.Fatalf("warm query paid no envelope misses: %v", warm)
	}

	// Two concurrent overlapping queries: same predicate footprint,
	// different operators. Both must be served from the shared cache.
	var wg sync.WaitGroup
	outs := make([][]byte, 2)
	for i, params := range []string{
		"op=count&minprob=0.5&where=" + url.QueryEscape("inc=50K"),
		"op=topk&k=3&where=" + url.QueryEscape("inc=50K"),
	} {
		wg.Add(1)
		go func(i int, params string) {
			defer wg.Done()
			outs[i] = post(params)
		}(i, params)
	}
	wg.Wait()
	for i, out := range outs {
		if out == nil {
			t.Fatal("concurrent query failed")
		}
		a := adaptiveOf(out)
		if a["envelope_hits"].(float64) == 0 || a["envelope_misses"].(float64) != 0 {
			t.Errorf("concurrent query %d not served from the shared envelope cache: %v", i, a)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.EnvelopeHits == 0 || st.Engine.EnvelopeMisses == 0 {
		t.Errorf("/stats engine envelope counters not populated: %+v", st.Engine)
	}
}
