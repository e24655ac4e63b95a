package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// engineOptions mirrors the flags the benchmark starts mrslserve with, so
// the in-process reference engine derives exactly what the server serves.
func engineOptions(cacheSize int) repro.DeriveOptions {
	return repro.DeriveOptions{
		Method:       repro.BestAveraged(),
		Workers:      gibbsWorkers,
		CacheEntries: cacheSize,
		Gibbs: repro.GibbsOptions{
			Samples: gibbsSamples, BurnIn: gibbsBurnIn, Seed: gibbsSeed, Method: repro.BestAveraged(),
		},
	}
}

// klSink scores every block against the network's exact conditional and
// forwards the item to the JSONL encoder, timing the encoder when asked.
type klSink struct {
	e       *env
	inner   repro.Sink
	timed   bool
	klSum   float64
	klN     int
	encode  time.Duration
	records int
}

func (s *klSink) Emit(it repro.DeriveItem) error {
	if !it.Certain() {
		kl, err := s.e.klOf(it.Block.Base, it.Block.Alts)
		if err != nil {
			return err
		}
		s.klSum += kl
		s.klN++
	}
	if !s.timed {
		return s.inner.Emit(it)
	}
	start := time.Now()
	err := s.inner.Emit(it)
	s.encode += time.Since(start)
	s.records++
	return err
}

func (s *klSink) Close() error { return s.inner.Close() }

// klOf is KL(exact conditional || served block) in nats for one block.
func (e *env) klOf(base relation.Tuple, alts []pdb.Alternative) (float64, error) {
	truth, err := e.inst.Conditional(base)
	if err != nil {
		return 0, err
	}
	pred := make(dist.Dist, truth.Size())
	vals := make([]int, len(truth.Attrs))
	for _, a := range alts {
		for i, attr := range truth.Attrs {
			vals[i] = a.Tuple[attr]
		}
		pred[truth.Index(vals)] += a.Prob
	}
	kl, err := dist.KL(truth.P, pred)
	if err == nil && math.IsInf(kl, 1) {
		err = fmt.Errorf("served block for %v gives no mass to a completion the network allows", base)
	}
	return kl, err
}

// deriveRef is the in-process reference for one /derive body: the digest
// of Engine.DeriveTo + NewJSONLSink bytes and the body's KL total.
type deriveRef struct {
	digest [32]byte
	klSum  float64
	klN    int
}

// layerTimes are the benchmark's own timings of calls into the layers'
// public functions, made in process on the workload's inputs.
type layerTimes struct {
	parse         time.Duration
	parsedTuples  int
	encode        time.Duration
	encodeRecords int
	match         time.Duration
	matchedTuples int
	spans         []span // in-process replay spans, relative to origin
	origin        time.Time
}

// record appends an in-process span.
func (lt *layerTimes) record(name, parent string, start, end time.Time, busy time.Duration, count int) {
	lt.spans = append(lt.spans, span{
		Trace: "inproc", Name: name, Parent: parent,
		Start: start.Sub(lt.origin).Nanoseconds(), End: end.Sub(lt.origin).Nanoseconds(),
		Busy: busy.Nanoseconds(), Count: count,
	})
}

// deriveReferences derives every body in process. With timed set it also
// times ReadCSVInSchema, each JSONLSink.Emit, and lattice matching over
// the bodies' distinct evidence.
func deriveReferences(e *env, w *workload, timed bool, lt *layerTimes) ([]deriveRef, error) {
	eng, err := repro.NewEngine(e.model, engineOptions(w.cacheSize))
	if err != nil {
		return nil, err
	}
	refs := make([]deriveRef, len(w.bodies))
	distinct := map[string]relation.Tuple{}
	for i, body := range w.bodies {
		start := time.Now()
		rel, err := repro.ReadCSVInSchema(bytes.NewReader(body), e.schema)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		parsed := time.Now()
		lt.parse += parsed.Sub(start)
		lt.parsedTuples += len(rel.Tuples)
		h := sha256.New()
		sink := &klSink{e: e, inner: repro.NewJSONLSink(h, e.schema), timed: timed}
		if err := eng.DeriveTo(rel, sink); err != nil {
			return nil, fmt.Errorf("reference derivation of body %d: %w", i, err)
		}
		lt.encode += sink.encode
		lt.encodeRecords += sink.records
		if timed {
			parent := fmt.Sprintf("body%d", i)
			lt.record("relation.parse", parent, start, parsed, 0, len(rel.Tuples))
			lt.record("derive.stream", parent, parsed, time.Now(), sink.encode, sink.records)
			collectDistinct(distinct, rel.Tuples)
		}
		refs[i] = deriveRef{klSum: sink.klSum, klN: sink.klN}
		h.Sum(refs[i].digest[:0])
	}
	if timed {
		timeMatches(e.model, distinct, lt)
	}
	return refs, nil
}

func collectDistinct(into map[string]relation.Tuple, tuples []relation.Tuple) {
	for _, t := range tuples {
		if !t.IsComplete() {
			into[t.Key()] = t
		}
	}
}

// timeMatches times MRSL.AppendMatches for every missing attribute of
// every distinct incomplete tuple: the lattice matching one vote needs.
func timeMatches(m *core.Model, distinct map[string]relation.Tuple, lt *layerTimes) {
	var (
		scratch core.MatchScratch
		dst     []int
	)
	begin := time.Now()
	var busy time.Duration
	for _, t := range distinct {
		start := time.Now()
		for _, a := range t.MissingAttrs() {
			dst = m.Lattices[a].AppendMatches(dst[:0], t, core.BestVoters, &scratch)
		}
		busy += time.Since(start)
	}
	lt.match += busy
	lt.matchedTuples += len(distinct)
	lt.record("core.match", "", begin, time.Now(), busy, len(distinct))
}

// queryRecords extracts the result records of one /query response in
// canonical form: count and exists records and the final topk rows and
// groupby buckets, without request ids, plans or timings.
func queryRecords(body []byte) ([]string, error) {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("decoding query record %q: %w", sc.Text(), err)
		}
		switch rec["kind"] {
		case "count", "exists":
		case "row", "group":
			if rec["final"] != true {
				continue
			}
		case "error":
			return nil, fmt.Errorf("query failed: %v", rec["error"])
		default:
			continue
		}
		delete(rec, "request_id")
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, sc.Err()
}

// renderResult renders an in-process query result as the records
// mrslserve streams for it, in the canonical form of queryRecords.
func renderResult(schema *relation.Schema, q *repro.CompiledQuery, res *repro.QueryResult) ([]string, error) {
	var recs []map[string]any
	switch q.Op() {
	case repro.QueryCount:
		rec := map[string]any{"kind": "count", "expected": res.Expected}
		if q.MinProb() > 0 {
			rec = map[string]any{"kind": "count", "count": res.Count, "minprob": q.MinProb()}
		}
		recs = append(recs, rec)
	case repro.QueryExists:
		rec := map[string]any{"kind": "exists", "exists": res.Exists, "p": res.Prob, "early_stop": res.EarlyStop}
		if res.Bounds != nil {
			rec["lo"], rec["hi"] = res.Bounds.Lo, res.Bounds.Hi
		}
		recs = append(recs, rec)
	case repro.QueryTopK:
		for rank, row := range res.Rows {
			labels := make([]string, len(row.Tuple))
			for a, v := range row.Tuple {
				labels[a] = schema.Attrs[a].Domain[v]
			}
			recs = append(recs, map[string]any{
				"kind": "row", "final": true, "rank": rank, "index": row.Index,
				"values": labels, "p": row.Prob, "certain": row.Certain,
			})
		}
	case repro.QueryGroupBy:
		for _, g := range res.Groups {
			recs = append(recs, map[string]any{
				"kind": "group", "final": true, "value": g.Label,
				"expected": g.Expected, "variance": g.Variance,
			})
		}
	}
	if res.Degraded || res.Dissociated {
		return nil, fmt.Errorf("reference %s answer is degraded or dissociated", q.Op())
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		// Round-trip through JSON so numbers compare the way the served
		// records decode.
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		var norm map[string]any
		if err := json.Unmarshal(b, &norm); err != nil {
			return nil, err
		}
		if b, err = json.Marshal(norm); err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

// liveReference replays query_live in process: the dataset is registered
// on a fresh engine, the same observations are applied in order, and
// every read is answered by Engine.QuerySnapshot after the same prefix of
// writes. It returns the expected records of every read (nil for
// writes) and the KL of the reference engine's derivation of the final
// conditioned snapshot. The server never runs that derivation, so this
// KL is a derive-path figure and does not guard the query answers; the
// record check does.
func liveReference(e *env, w *workload) (want [][]string, klSum float64, klN int, err error) {
	eng, err := repro.NewEngine(e.model, engineOptions(w.cacheSize))
	if err != nil {
		return nil, 0, 0, err
	}
	reg := relation.NewRelation(e.schema)
	for _, t := range w.dataset {
		reg.Tuples = append(reg.Tuples, t.Clone())
	}
	ds, err := eng.RegisterDataset(reg)
	if err != nil {
		return nil, 0, 0, err
	}
	compiled := make([]*repro.CompiledQuery, len(w.queries))
	for i, q := range w.queries {
		op, err := repro.ParseQueryOp(q.op)
		if err != nil {
			return nil, 0, 0, err
		}
		if compiled[i], err = repro.CompileQuery(e.schema, repro.QuerySpec{
			Op: op, Where: q.where, GroupBy: q.groupBy, K: q.k, MinProb: q.minProb,
		}); err != nil {
			return nil, 0, 0, err
		}
	}
	ctx := context.Background()
	want = make([][]string, len(w.seq))
	for i, r := range w.seq {
		if !r.read() {
			o := w.observes[r.ref]
			if _, err := ds.Observe(ctx, o.index, o.attr, o.val); err != nil {
				return nil, 0, 0, fmt.Errorf("reference observe %d: %w", r.ref, err)
			}
			continue
		}
		snap, err := ds.Snapshot(ctx)
		if err != nil {
			return nil, 0, 0, err
		}
		q := compiled[r.ref]
		res, err := eng.QuerySnapshot(ctx, snap, q, repro.Pools{}, nil)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("reference query %d: %w", i, err)
		}
		if want[i], err = renderResult(e.schema, q, res); err != nil {
			return nil, 0, 0, err
		}
	}
	snap, err := ds.Snapshot(ctx)
	if err != nil {
		return nil, 0, 0, err
	}
	sink := &klSink{e: e, inner: repro.NewJSONLSink(io.Discard, e.schema)}
	if err := eng.DeriveSnapshot(ctx, snap, repro.Pools{}, sink); err != nil {
		return nil, 0, 0, fmt.Errorf("deriving the final snapshot: %w", err)
	}
	return want, sink.klSum, sink.klN, nil
}

// checks is the outcome of the output checks of one run.
type checks struct {
	klMean   float64
	failures []string
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

func (c *checks) failf(format string, args ...any) {
	// Twenty mismatches are enough to act on; a wholesale mismatch would
	// otherwise print one line per request.
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check compares every response of the timed passes with the in-process
// reference and computes kl_mean. With timed set it also fills lt with
// the in-process layer timings.
func check(e *env, w *workload, passes []*pass, timed bool, lt *layerTimes) (*checks, error) {
	c := &checks{}
	for _, p := range passes {
		if p.dials != 1 {
			c.failf("pass used %d connections, want 1", p.dials)
		}
		for i, resp := range p.resps {
			if resp.status != 200 {
				c.failf("request %d (%s) returned status %d", i, w.seq[i].path, resp.status)
			}
			if p.ids[i] != "" && resp.id != p.ids[i] {
				c.failf("request %d: X-Request-ID %q echoed as %q", i, p.ids[i], resp.id)
			}
		}
	}
	if w.name != "query_live" {
		refs, err := deriveReferences(e, w, timed, lt)
		if err != nil {
			return nil, err
		}
		var klSum float64
		var klN int
		for i, r := range w.seq {
			for _, p := range passes {
				if p.resps[i].digest != refs[r.ref].digest {
					c.failf("/derive response %d differs from Engine.DeriveTo + NewJSONLSink of the same body", i)
				}
			}
			klSum += refs[r.ref].klSum
			klN += refs[r.ref].klN
		}
		c.klMean = ratio(klSum, float64(klN))
		return c, nil
	}

	want, klSum, klN, err := liveReference(e, w)
	if err != nil {
		return nil, err
	}
	c.klMean = ratio(klSum, float64(klN))
	if timed {
		distinct := map[string]relation.Tuple{}
		collectDistinct(distinct, w.dataset)
		timeMatches(e.model, distinct, lt)
	}
	for i, r := range w.seq {
		for _, p := range passes {
			body := p.resps[i].body
			if !r.read() {
				var obs struct {
					Kind    string `json:"kind"`
					Applied int    `json:"applied"`
				}
				if err := json.Unmarshal(body, &obs); err != nil || obs.Kind != "observed" || obs.Applied != 1 {
					c.failf("/observe %d: got %.200q", i, body)
				}
				continue
			}
			got, err := queryRecords(body)
			if err != nil {
				c.failf("/query %d: %v", i, err)
				continue
			}
			if strings.Join(got, "\n") != strings.Join(want[i], "\n") {
				c.failf("/query %d (%s) records differ from Engine.QuerySnapshot after the same writes:\n got %v\nwant %v",
					i, r.path, got, want[i])
			}
		}
	}
	return c, nil
}
