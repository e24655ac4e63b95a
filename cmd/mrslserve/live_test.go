package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
)

// Live-evidence endpoint tests: register → query → observe → re-query
// round trips, watch subscriptions that receive only the records a
// delta changed, and the observation parser's error paths.

// registerDataset registers csvBody on the server and returns the id.
func registerDataset(t *testing.T, ts string, csvBody []byte) string {
	t.Helper()
	resp, err := http.Post(ts+"/datasets", "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /datasets: status %d: %s", resp.StatusCode, out)
	}
	var rec struct {
		Kind   string `json:"kind"`
		ID     string `json:"id"`
		Tuples int    `json:"tuples"`
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatalf("bad /datasets response %q: %v", out, err)
	}
	if rec.Kind != "dataset" || rec.ID == "" {
		t.Fatalf("POST /datasets returned %q", out)
	}
	return rec.ID
}

// postObserve applies deltas and returns the response status and body.
func postObserve(t *testing.T, ts, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts+"/observe", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// firstObservation picks, via a fresh local engine with the server's
// options, an incomplete tuple and the most probable completion of a
// missing attribute whose block mass is genuinely split — evidence
// guaranteed consistent with the block the (bit-identical) server
// engine holds, and guaranteed to change the tuple's distribution.
func firstObservation(t *testing.T, model *repro.Model, rel *repro.Relation) (index int, attr string, value string) {
	t.Helper()
	db, err := repro.Derive(model, rel, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range rel.Tuples {
		if tu.NumMissing() < 2 {
			// Multi-missing tuples keep a conditioned block after the first
			// delta, so a second delta exercises invalidation too.
			continue
		}
		for _, b := range db.Blocks {
			if !b.Base.Equal(tu) {
				continue
			}
			for _, a := range tu.MissingAttrs() {
				top := b.Alts[0].Tuple[a]
				for _, alt := range b.Alts[1:] {
					if alt.Tuple[a] != top {
						// The block splits on a: conditioning on top removes mass.
						return i, model.Schema.Attrs[a].Name, model.Schema.Attrs[a].Domain[top]
					}
				}
			}
		}
	}
	t.Fatal("no multi-missing tuple with a split attribute in fixture")
	return 0, "", ""
}

// TestServeLiveRoundTrip drives the full register → query → observe →
// re-query loop over HTTP and checks the post-observe answer is
// bit-identical to a fresh local engine evaluating the conditioned
// dataset — the serving path adds transport, not semantics — and that
// /stats surfaces the live-evidence counters.
func TestServeLiveRoundTrip(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	ctx := context.Background()

	id := registerDataset(t, ts.URL, csvBody)
	index, attrName, valLabel := firstObservation(t, model, rel)
	attr := model.Schema.AttrIndex(attrName)
	where := attrName + "=" + valLabel

	query := func() float64 {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query?op=count&dataset="+id+"&where="+url.QueryEscape(where),
			"text/csv", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /query?dataset=%s: status %d: %s", id, resp.StatusCode, out)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			if rec["kind"] == "count" {
				return rec["expected"].(float64)
			}
		}
		t.Fatalf("no count record in %s", out)
		return 0
	}

	before := query()

	// Local reference: a fresh engine conditions the same dataset the
	// same way. Delta 1 is the split attribute's most probable value;
	// delta 2 pins the next missing attribute of the CONDITIONED block —
	// a second observation on the same tuple, so the server must
	// invalidate the superseded conditioned cache entry.
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	lds, err := eng.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	val, err := model.Schema.ValueCode(attr, valLabel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lds.Observe(ctx, index, attr, val); err != nil {
		t.Fatal(err)
	}
	snap, err := lds.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cond := snap.Overrides[index]
	if cond == nil || cond.Base.IsComplete() {
		t.Fatal("fixture pick is not multi-missing after one delta")
	}
	attr2 := cond.Base.MissingAttrs()[0]
	attr2Name := model.Schema.Attrs[attr2].Name
	val2Label := model.Schema.Attrs[attr2].Domain[cond.Alts[0].Tuple[attr2]]
	if _, err := lds.Observe(ctx, index, attr2, cond.Alts[0].Tuple[attr2]); err != nil {
		t.Fatal(err)
	}
	if snap, err = lds.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryCount, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(ctx, snap, q, repro.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	status, out := postObserve(t, ts.URL, fmt.Sprintf(
		`{"dataset":%q,"observations":[{"index":%d,"attr":%q,"value":%q},{"index":%d,"attr":%q,"value":%q}]}`,
		id, index, attrName, valLabel, index, attr2Name, val2Label))
	if status != http.StatusOK {
		t.Fatalf("POST /observe: status %d: %s", status, out)
	}
	var ores struct {
		Kind    string `json:"kind"`
		Applied int    `json:"applied"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(out, &ores); err != nil || ores.Kind != "observed" || ores.Applied != 2 || ores.Version != 2 {
		t.Fatalf("observe response %s (err %v), want observed/applied=2/version=2", out, err)
	}

	after := query()
	if after != want.Expected {
		t.Errorf("post-observe count = %v, want bit-identical %v", after, want.Expected)
	}
	if after == before {
		t.Errorf("observation did not change the count (%v): evidence had no effect", after)
	}

	// /derive?dataset= emits the conditioned database; the observed tuple
	// must reflect the evidence (fewer alternatives, or certain).
	resp, err := http.Post(ts.URL+"/derive?dataset="+id, "text/csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dout, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /derive?dataset=%s: status %d: %s", id, resp.StatusCode, dout)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(string(dout)), "\n") {
		lines = append(lines, line)
	}
	// Line 0 is the schema record; tuple i is at line i+1.
	var drec struct {
		Kind string `json:"kind"`
		Alts []struct {
			Values []string `json:"values"`
			P      float64  `json:"p"`
		} `json:"alts"`
	}
	if err := json.Unmarshal([]byte(lines[index+1]), &drec); err != nil {
		t.Fatal(err)
	}
	switch drec.Kind {
	case "certain": // collapsed: fine
	case "block":
		for _, a := range drec.Alts {
			if a.Values[attr] != valLabel {
				t.Errorf("derived alternative %v contradicts observed %s=%s", a.Values, attrName, valLabel)
			}
		}
	default:
		t.Fatalf("observed tuple derived as %q record", drec.Kind)
	}

	// Stats surface the live-evidence counters.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Observations != 2 || st.Engine.Datasets != 1 {
		t.Errorf("stats: observations=%d datasets=%d, want 2/1", st.Engine.Observations, st.Engine.Datasets)
	}
	// The second delta superseded the first delta's conditioned entry:
	// exactly that entry was invalidated, eagerly.
	if st.Engine.InvalidatedEntries == 0 {
		t.Error("stats: observe invalidated no conditioned entries")
	}

	// Drop: the id disappears, later observes 404, a second DELETE 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /datasets/%s: status %d", id, dresp.StatusCode)
	}
	if status, _ := postObserve(t, ts.URL, fmt.Sprintf(
		`{"dataset":%q,"observations":[{"index":0,"attr":%q,"value":%q}]}`, id, attrName, valLabel)); status != http.StatusNotFound {
		t.Errorf("observe after drop: status %d, want 404", status)
	}
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp2.Body)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", dresp2.StatusCode)
	}
}

// TestServeObserveErrors covers the /observe failure paths: malformed
// bodies (400), unknown datasets (404), out-of-range indices (400), and
// conflicting evidence (409 with the applied count).
func TestServeObserveErrors(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	id := registerDataset(t, ts.URL, csvBody)
	index, attrName, valLabel := firstObservation(t, model, rel)

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"not json", "xyz", http.StatusBadRequest},
		{"missing dataset", `{"observations":[{"index":0,"attr":"a","value":"b"}]}`, http.StatusBadRequest},
		{"no observations", fmt.Sprintf(`{"dataset":%q}`, id), http.StatusBadRequest},
		{"unknown field", fmt.Sprintf(`{"dataset":%q,"obs":[]}`, id), http.StatusBadRequest},
		{"bad attr", fmt.Sprintf(`{"dataset":%q,"observations":[{"index":0,"attr":"nope","value":"x"}]}`, id), http.StatusBadRequest},
		{"bad value", fmt.Sprintf(`{"dataset":%q,"observations":[{"index":0,"attr":%q,"value":"nope"}]}`, id, attrName), http.StatusBadRequest},
		{"negative index", fmt.Sprintf(`{"dataset":%q,"observations":[{"index":-1,"attr":%q,"value":%q}]}`, id, attrName, valLabel), http.StatusBadRequest},
		{"index out of range", fmt.Sprintf(`{"dataset":%q,"observations":[{"index":99999,"attr":%q,"value":%q}]}`, id, attrName, valLabel), http.StatusBadRequest},
		{"unknown dataset", fmt.Sprintf(`{"dataset":"ds999","observations":[{"index":0,"attr":%q,"value":%q}]}`, attrName, valLabel), http.StatusNotFound},
	} {
		if status, out := postObserve(t, ts.URL, tc.body); status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, out)
		}
	}

	// Conflict: observe the value, then contradict it. The first delta of
	// the batch applies; the second stops it with 409 and applied=1.
	attr := model.Schema.AttrIndex(attrName)
	other := ""
	for _, label := range model.Schema.Attrs[attr].Domain {
		if label != valLabel {
			other = label
			break
		}
	}
	body := fmt.Sprintf(`{"dataset":%q,"observations":[{"index":%d,"attr":%q,"value":%q},{"index":%d,"attr":%q,"value":%q}]}`,
		id, index, attrName, valLabel, index, attrName, other)
	status, out := postObserve(t, ts.URL, body)
	if status != http.StatusConflict {
		t.Fatalf("conflicting delta: status %d (%s), want 409", status, out)
	}
	var cres struct {
		Kind    string `json:"kind"`
		Applied int    `json:"applied"`
	}
	if err := json.Unmarshal(out, &cres); err != nil || cres.Kind != "error" || cres.Applied != 1 {
		t.Errorf("conflict response %s (err %v), want kind=error applied=1", out, err)
	}
}

// watchLines starts a watch query and feeds its NDJSON records to a
// channel, closing it when the stream ends.
func watchLines(t *testing.T, ctx context.Context, ts, params string) <-chan map[string]any {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts+"/query?"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch query: status %d: %s", resp.StatusCode, out)
	}
	ch := make(chan map[string]any, 64)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				ch <- rec
			}
		}
	}()
	return ch
}

// nextRecord receives one record or fails after a deadline.
func nextRecord(t *testing.T, ch <-chan map[string]any, what string) map[string]any {
	t.Helper()
	select {
	case rec, ok := <-ch:
		if !ok {
			t.Fatalf("watch stream closed waiting for %s", what)
		}
		return rec
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	return nil
}

// TestServeWatchQuery subscribes a groupby watch, applies a delta, and
// checks the stream re-emits exactly the buckets the delta changed —
// no more — stamped with the new version, and ends with an "end"
// record when the dataset is dropped.
func TestServeWatchQuery(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	id := registerDataset(t, ts.URL, csvBody)
	index, attrName, valLabel := firstObservation(t, model, rel)
	attr := model.Schema.AttrIndex(attrName)
	groupAttr := model.Schema.Attrs[0].Name
	card := model.Schema.Attrs[0].Card()

	ch := watchLines(t, ctx, ts.URL, "op=groupby&groupby="+url.QueryEscape(groupAttr)+"&dataset="+id+"&watch=1")

	header := nextRecord(t, ch, "watch header")
	if header["kind"] != "query" || header["watch"] != true || header["dataset"] != id {
		t.Fatalf("watch header = %v", header)
	}
	initial := map[string]float64{}
	for i := 0; i < card; i++ {
		rec := nextRecord(t, ch, "initial group record")
		if rec["kind"] != "group" || rec["partial"] != true || rec["version"].(float64) != 0 {
			t.Fatalf("initial record = %v, want partial group at version 0", rec)
		}
		initial[rec["value"].(string)] = rec["expected"].(float64)
	}
	if len(initial) != card {
		t.Fatalf("initial emission covered %d buckets, want %d", len(initial), card)
	}

	// Local reference: which buckets does this delta actually change?
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	lds, err := eng.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryGroupBy, GroupBy: groupAttr})
	if err != nil {
		t.Fatal(err)
	}
	evalGroups := func() []repro.QueryGroup {
		t.Helper()
		snap, err := lds.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(ctx, snap, q, repro.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Groups
	}
	before := evalGroups()
	val, err := model.Schema.ValueCode(attr, valLabel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lds.Observe(ctx, index, attr, val); err != nil {
		t.Fatal(err)
	}
	after := evalGroups()
	changed := map[string]float64{}
	for i := range after {
		if after[i] != before[i] {
			changed[after[i].Label] = after[i].Expected
		}
	}
	if len(changed) == 0 {
		t.Fatal("fixture delta changes no bucket; pick a different observation")
	}

	status, out := postObserve(t, ts.URL, fmt.Sprintf(
		`{"dataset":%q,"observations":[{"index":%d,"attr":%q,"value":%q}]}`,
		id, index, attrName, valLabel))
	if status != http.StatusOK {
		t.Fatalf("POST /observe: status %d: %s", status, out)
	}

	got := map[string]float64{}
	for range changed {
		rec := nextRecord(t, ch, "changed group record")
		if rec["kind"] != "group" || rec["partial"] != true {
			t.Fatalf("update record = %v, want partial group", rec)
		}
		if rec["version"].(float64) != 1 {
			t.Errorf("update record version = %v, want 1", rec["version"])
		}
		got[rec["value"].(string)] = rec["expected"].(float64)
	}
	for label, want := range changed {
		if gotv, ok := got[label]; !ok || gotv != want {
			t.Errorf("bucket %q = %v (present %v), want bit-identical %v", label, gotv, ok, want)
		}
	}

	// Dropping the dataset ends the stream with an "end" record — and
	// nothing else may arrive in between: unchanged buckets stay silent.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	rec := nextRecord(t, ch, "end record")
	if rec["kind"] != "end" {
		t.Fatalf("record after drop = %v, want end (unchanged buckets must not re-emit)", rec)
	}
	if _, ok := <-ch; ok {
		t.Error("watch stream kept emitting after end record")
	}
}

// TestServeWatchTopKRetracts subscribes a topk watch whose k exceeds the
// number of satisfying completions, then observes a value that moves an
// incomplete tuple's income off the predicate's. The watch re-sends
// exactly the ranks whose row changed and retracts exactly the ranks past
// the new end with "removed":true records, all stamped with the new
// version.
func TestServeWatchTopKRetracts(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id := registerDataset(t, ts.URL, csvBody)

	inc := model.Schema.AttrIndex("inc")
	where := "inc=" + model.Schema.Attrs[inc].Domain[0]
	// Pick an incomplete tuple whose block splits on the missing income,
	// and an income it supports other than the predicate's.
	db, err := repro.Derive(model, rel, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	index, other := -1, -1
search:
	for i, tu := range rel.Tuples {
		if tu[inc] != repro.Missing {
			continue
		}
		for _, b := range db.Blocks {
			if !b.Base.Equal(tu) {
				continue
			}
			matches := false
			for _, a := range b.Alts {
				if a.Tuple[inc] == 0 {
					matches = true
				} else {
					other = a.Tuple[inc]
				}
			}
			if matches && other >= 0 {
				index = i
				break search
			}
			other = -1
		}
	}
	if index < 0 {
		t.Fatal("no tuple with a split missing income in fixture")
	}

	// Local reference: the rows before and after the delta.
	eng, err := repro.NewEngine(model, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	lds, err := eng.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryTopK, Where: where, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	evalRows := func() []repro.QueryRow {
		t.Helper()
		snap, err := lds.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(ctx, snap, q, repro.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	before := evalRows()
	if len(before) >= 50 {
		t.Fatalf("fixture has %d satisfying completions, want fewer than k=50", len(before))
	}
	if _, err := lds.Observe(ctx, index, inc, other); err != nil {
		t.Fatal(err)
	}
	after := evalRows()
	if len(after) >= len(before) {
		t.Fatalf("delta left %d rows of %d: nothing to retract", len(after), len(before))
	}
	changed := map[int]bool{}
	for rank, row := range after {
		b := before[rank]
		if b.Index != row.Index || b.Prob != row.Prob || !b.Tuple.Equal(row.Tuple) {
			changed[rank] = true
		}
	}

	ch := watchLines(t, ctx, ts.URL, "op=topk&k=50&where="+url.QueryEscape(where)+"&dataset="+id+"&watch=1")
	nextRecord(t, ch, "watch header")
	for range before {
		if rec := nextRecord(t, ch, "initial row"); rec["kind"] != "row" || rec["version"] != 0.0 {
			t.Fatalf("initial record = %v, want a row at version 0", rec)
		}
	}
	status, out := postObserve(t, ts.URL, fmt.Sprintf(
		`{"dataset":%q,"observations":[{"index":%d,"attr":"inc","value":%q}]}`,
		id, index, model.Schema.Attrs[inc].Domain[other]))
	if status != http.StatusOK {
		t.Fatalf("POST /observe: status %d: %s", status, out)
	}

	removed := map[int]bool{}
	for range len(changed) + len(before) - len(after) {
		rec := nextRecord(t, ch, "update record")
		if rec["kind"] != "row" || rec["partial"] != true || rec["version"] != 1.0 {
			t.Fatalf("update record = %v, want a partial row at version 1", rec)
		}
		rank := int(rec["rank"].(float64))
		switch {
		case rec["removed"] == true:
			if rank < len(after) || rank >= len(before) || removed[rank] {
				t.Errorf("retracted rank %d, want each of [%d, %d) once", rank, len(after), len(before))
			}
			removed[rank] = true
		case !changed[rank]:
			t.Errorf("re-sent rank %d, whose row the delta left unchanged: %v", rank, rec)
		case rec["index"].(float64) != float64(after[rank].Index) || rec["p"].(float64) != after[rank].Prob:
			t.Errorf("rank %d = %v, want index %d p %v", rank, rec, after[rank].Index, after[rank].Prob)
		}
	}
	if len(removed) != len(before)-len(after) {
		t.Errorf("retracted ranks %v, want [%d, %d)", removed, len(after), len(before))
	}

	// Dropping the dataset ends the stream, with nothing in between.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if rec := nextRecord(t, ch, "end record"); rec["kind"] != "end" {
		t.Fatalf("record after drop = %v, want end", rec)
	}
}

// TestServeWatchTracesEachEvaluation: a traced watch writes one
// {"kind":"trace"} record per evaluation, after its diff, holding only
// that evaluation's spans — so a long-lived subscription never grows a
// recorder nobody reads.
func TestServeWatchTracesEachEvaluation(t *testing.T) {
	model, rel, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	id := registerDataset(t, ts.URL, csvBody)

	// Two applied deltas: firstObservation's, and the most probable value
	// of another incomplete tuple's first missing attribute.
	index, attrName, valLabel := firstObservation(t, model, rel)
	db, err := repro.Derive(model, rel, serveOptions())
	if err != nil {
		t.Fatal(err)
	}
	second := ""
search:
	for i, tu := range rel.Tuples {
		if i == index || tu.IsComplete() {
			continue
		}
		for _, b := range db.Blocks {
			if b.Base.Equal(tu) {
				a := tu.MissingAttrs()[0]
				second = fmt.Sprintf(`{"index":%d,"attr":%q,"value":%q}`,
					i, model.Schema.Attrs[a].Name, model.Schema.Attrs[a].Domain[b.Alts[0].Tuple[a]])
				break search
			}
		}
	}
	if second == "" {
		t.Fatal("fixture has a single incomplete tuple")
	}
	deltas := []string{
		fmt.Sprintf(`{"index":%d,"attr":%q,"value":%q}`, index, attrName, valLabel),
		second,
	}

	ch := watchLines(t, ctx, ts.URL, "op=count&where="+url.QueryEscape(attrName+"="+valLabel)+
		"&dataset="+id+"&watch=1&trace=1")
	if rec := nextRecord(t, ch, "watch header"); rec["kind"] != "query" {
		t.Fatalf("watch header = %v", rec)
	}
	// awaitTrace reads one evaluation's records up to its trace record and
	// checks the trace holds exactly one query evaluation.
	awaitTrace := func(eval int) {
		t.Helper()
		for {
			rec := nextRecord(t, ch, fmt.Sprintf("evaluation %d's trace", eval))
			switch rec["kind"] {
			case "count":
				continue
			case "trace":
			default:
				t.Fatalf("evaluation %d: record %v, want count records then a trace", eval, rec)
			}
			walls := 0
			for _, sp := range rec["spans"].([]any) {
				if sp.(map[string]any)["name"] == "query.wall" {
					walls++
				}
			}
			if walls != 1 {
				t.Fatalf("evaluation %d's trace has %d query.wall spans, want 1: %v", eval, walls, rec)
			}
			return
		}
	}
	awaitTrace(0)
	for i, d := range deltas {
		status, out := postObserve(t, ts.URL, fmt.Sprintf(`{"dataset":%q,"observations":[%s]}`, id, d))
		if status != http.StatusOK {
			t.Fatalf("POST /observe: status %d: %s", status, out)
		}
		awaitTrace(i + 1)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/datasets/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if rec := nextRecord(t, ch, "end record"); rec["kind"] != "end" {
		t.Fatalf("record after drop = %v, want end", rec)
	}
	if rec, ok := <-ch; ok {
		t.Errorf("watch stream sent %v after its end record", rec)
	}
}

// TestServeWatchRequiresDataset: watch without a dataset is a 400 — a
// posted CSV body cannot receive evidence.
func TestServeWatchRequiresDataset(t *testing.T) {
	model, _, csvBody := matchmakingFixture(t)
	ts := startServer(t, model)
	resp, err := http.Post(ts.URL+"/query?op=count&where=x&watch=1", "text/csv", bytes.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("watch without dataset: status %d, want 400", resp.StatusCode)
	}
}

// TestParseObserveRequest pins the parser's resolution behavior: labels
// resolve to codes against the schema, and every malformed shape is an
// error rather than a best-effort guess.
func TestParseObserveRequest(t *testing.T) {
	model, _, _ := matchmakingFixture(t)
	attr := model.Schema.Attrs[1]

	id, deltas, err := parseObserveRequest(model.Schema, strings.NewReader(fmt.Sprintf(
		`{"dataset":"ds7","observations":[{"index":3,"attr":%q,"value":%q}]}`,
		attr.Name, attr.Domain[1])))
	if err != nil {
		t.Fatal(err)
	}
	if id != "ds7" || len(deltas) != 1 || deltas[0] != (observeDelta{Index: 3, Attr: 1, Val: 1}) {
		t.Errorf("parsed %q %+v", id, deltas)
	}

	for _, bad := range []string{
		``,
		`{}`,
		`[1,2]`,
		`{"dataset":"d"}`,
		`{"dataset":"d","observations":[]}`,
		`{"dataset":"d","observations":[{"index":0,"attr":"missing-attr","value":"x"}]}`,
		fmt.Sprintf(`{"dataset":"d","observations":[{"index":0,"attr":%q,"value":"not-a-label"}]}`, attr.Name),
		fmt.Sprintf(`{"dataset":"d","observations":[{"index":-4,"attr":%q,"value":%q}]}`, attr.Name, attr.Domain[0]),
		fmt.Sprintf(`{"dataset":"d","observations":[{"index":0,"attr":%q,"value":%q}],"extra":1}`, attr.Name, attr.Domain[0]),
	} {
		if _, _, err := parseObserveRequest(model.Schema, strings.NewReader(bad)); err == nil {
			t.Errorf("parseObserveRequest(%q) accepted malformed input", bad)
		}
	}
}

// FuzzParseObserve throws arbitrary bodies at the observation parser:
// it must never panic, and anything it accepts must be fully resolved —
// a non-empty dataset id and in-vocabulary attribute/value codes.
func FuzzParseObserve(f *testing.F) {
	model, _, _ := matchmakingFixture(f)
	attr := model.Schema.Attrs[0]
	f.Add(`{"dataset":"ds1","observations":[{"index":0,"attr":"` + attr.Name + `","value":"` + attr.Domain[0] + `"}]}`)
	f.Add(`{"dataset":"","observations":[]}`)
	f.Add(`{"observations":[{"index":-1}]}`)
	f.Add(`not json at all`)
	f.Add(`{"dataset":"d","observations":[{"index":1e99,"attr":"x","value":"y"}]}`)
	f.Fuzz(func(t *testing.T, body string) {
		id, deltas, err := parseObserveRequest(model.Schema, strings.NewReader(body))
		if err != nil {
			return
		}
		if id == "" || len(deltas) == 0 {
			t.Fatalf("accepted body %q with empty id or deltas", body)
		}
		for _, d := range deltas {
			if d.Index < 0 {
				t.Fatalf("accepted negative index %d from %q", d.Index, body)
			}
			if d.Attr < 0 || d.Attr >= model.Schema.NumAttrs() {
				t.Fatalf("accepted out-of-schema attribute %d from %q", d.Attr, body)
			}
			if d.Val < 0 || d.Val >= model.Schema.Attrs[d.Attr].Card() {
				t.Fatalf("accepted out-of-domain value %d from %q", d.Val, body)
			}
		}
	})
}
