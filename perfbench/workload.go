package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/relation"
)

// The served model is fixed: catalog network BN7 (10 attributes, a
// 518,400-tuple domain) with CPTs and a training sample drawn from
// modelSeed, learned at support 0.01 (about 4.3k meta-rules). Every run
// and every --seed serves the same model, so the seed varies only the
// traffic and a change in model size cannot pose as a change in speed.
const (
	networkID   = "BN7"
	modelSeed   = 1
	trainTuples = 20000
	support     = 0.01
	datasetSeed = 2 // query_live's registered dataset
)

// Sampler options of the served engine and the in-process reference
// engine. startServer passes them to mrslserve as flags and
// engineOptions to the reference, so a change of the server's defaults
// cannot make the two disagree. They are the mrslserve defaults (chains
// mode, 8 chain workers, 800 samples after 100 burn-in sweeps, sampler
// seed 1); both sides vote best-averaged, the server's only method.
const (
	gibbsSamples = 800
	gibbsBurnIn  = 100
	gibbsSeed    = 1
	gibbsWorkers = 8
	defaultCache = 1 << 16
)

// env is what every workload shares: the network (exact conditionals for
// KL), the learned model and its saved JSON, which the server loads.
type env struct {
	inst      *bn.Instance
	schema    *relation.Schema
	model     *core.Model
	modelPath string
}

func newEnv(dir string) (*env, error) {
	top, err := bn.ByID(networkID)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(modelSeed))
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		return nil, err
	}
	inst.Joint() // build the exact-conditional table outside every timed section
	train := inst.SampleRelation(rng, trainTuples)
	model, err := core.Learn(train, core.Config{SupportThreshold: support})
	if err != nil {
		return nil, fmt.Errorf("learning %s: %w", networkID, err)
	}
	path := filepath.Join(dir, "model.json")
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// The reference engine loads the same bytes the server loads.
	loaded, err := core.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &env{inst: inst, schema: loaded.Schema, model: loaded, modelPath: path}, nil
}

// hide returns a fresh sample of the network with k distinct attributes
// hidden, plus the sample's true values.
func (e *env) hide(rng *rand.Rand, k int) (t, truth relation.Tuple) {
	truth = e.inst.Sample(rng)
	t = truth.Clone()
	for _, a := range rng.Perm(len(t))[:k] {
		t[a] = relation.Missing
	}
	return t, truth
}

// csvBody renders tuples as a request body in the model's schema.
func (e *env) csvBody(tuples []relation.Tuple) []byte {
	rel := relation.NewRelation(e.schema)
	rel.Tuples = tuples
	var buf bytes.Buffer
	if err := relation.WriteCSV(&buf, rel); err != nil {
		panic(err) // writing to a bytes.Buffer with in-domain codes cannot fail
	}
	return buf.Bytes()
}

// Request kinds. Reads are the requests whose latency the percentiles
// describe: every /derive and every /query.
const (
	kindDerive  = "derive"
	kindCount   = "count"
	kindTopK    = "topk"
	kindExists  = "exists"
	kindGroupBy = "groupby"
	kindObserve = "observe"
)

// request is one HTTP request of a workload's fixed sequence.
type request struct {
	kind string
	path string // path and query string
	body []byte
	// body index (derive), query index (reads of query_live), or step
	// index into the observation list (observe).
	ref int
}

func (r request) read() bool { return r.kind != kindObserve }

// querySpec is one of query_live's reads, in wire form.
type querySpec struct {
	op      string
	where   string
	groupBy string
	k       int
	minProb float64
}

func (q querySpec) params() url.Values {
	v := url.Values{"op": {q.op}}
	if q.where != "" {
		v.Set("where", q.where)
	}
	if q.groupBy != "" {
		v.Set("groupby", q.groupBy)
	}
	if q.k > 0 {
		v.Set("k", strconv.Itoa(q.k))
	}
	if q.minProb > 0 {
		v.Set("minprob", strconv.FormatFloat(q.minProb, 'g', -1, 64))
	}
	return v
}

// observation is one /observe write: the ground-truth value of one hidden
// cell of the live dataset.
type observation struct {
	index, attr, val int
}

// workload is the generated input of one run: the server flags, the
// set-up requests, the timed request sequence, and what the output
// checks need.
type workload struct {
	name        string
	cacheSize   int
	passes      int              // untraced timed passes, each on a fresh server
	bodies      [][]byte         // derive bodies, by ref
	bodyTuples  []int            // tuples per body
	dataset     []relation.Tuple // query_live's registered relation
	datasetBody []byte
	queries     []querySpec
	observes    []observation
	warm        []request // set-up requests after registration
	seq         []request // the timed sequence
	windows     []int     // start index in seq of each window, the warm-up first
}

// Workload shapes at scale 1. Each pass replays a fixed number of reads:
// seconds × the per-second count below, and at least enough for every
// window's p90 and the measured windows' p99 to have ten samples beyond
// them. A run is bounded by work, not by time, so cold work and cache
// fills are the same on every run. At 20 seconds a run on a 2-vCPU Xeon
// VM takes 21–53 s, set-up and references included.
const (
	hotPool       = 8    // distinct derive_hot bodies
	hotTuples     = 1000 // tuples per derive_hot body
	hotPerSecond  = 60
	coldTuples    = 16 // tuples per derive_cold body
	coldPerSecond = 66
	// coldPasses: derive_cold replays its sequence on this many fresh
	// servers. Its output check derives every body again in process,
	// which costs about as much as serving it, so more passes of the same
	// sequence lengthen the measured time without lengthening the check.
	coldPasses = 2
	// coldWarm: derive_cold's set-up posts this many bodies, so that
	// setup_s, as on the other workloads, times a server that has served
	// work. Without them it timed only the exec of a fresh process, tens
	// of milliseconds that moved with the host's contention by a quarter
	// between two sets of runs, more than twice as far as serving did.
	coldWarm = 40
	// coldCacheShare: derive_cold's -cache-entries is this share of the
	// sequence's distinct evidence patterns, so the working set is at
	// least 8× every engine cache.
	coldCacheShare = 8
	liveTuples     = 5000
	livePerSecond  = 105 // reads; writes come on top
	liveWriteShare = 0.25
)

// windowCount is how many windows of equal work a pass's sequence is
// cut into. The first is the warm-up, which fills the caches and the
// heap: it is replayed and checked but not measured. Each of the others
// is measured on its own.
const windowCount = 11

// readCount is the number of reads a pass replays: seconds × perSecond,
// and never fewer than p99 needs over the measured windows or p90 needs
// in each of them.
func readCount(seconds, perSecond int) int {
	return max(seconds*perSecond, minSamplesFor(0.99)*windowCount/(windowCount-1)+1, windowCount*minSamplesFor(0.9))
}

// cutWindows returns the start indices of windowCount windows of seq.
// Each holds the same number of reads, a multiple of period, except the
// last, which takes the remainder; writes go with the reads before them.
func cutWindows(seq []request, period int) []int {
	per := countReads(seq) / windowCount / period * period
	starts := []int{0}
	reads := 0
	for i, r := range seq {
		if !r.read() {
			continue
		}
		if reads > 0 && reads%per == 0 && len(starts) < windowCount {
			starts = append(starts, i)
		}
		reads++
	}
	return starts
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func buildWorkload(name string, e *env, seed int64, seconds int, scale float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "derive_hot":
		return buildDeriveHot(e, rng, seconds, scale), nil
	case "derive_cold":
		return buildDeriveCold(e, rng, seconds, scale), nil
	case "query_live":
		return buildQueryLive(e, rng, seconds, scale)
	}
	return nil, fmt.Errorf("unknown workload %q (want derive_hot, derive_cold or query_live)", name)
}

// buildDeriveHot: a data-cleaning client re-posting bodies from a small
// pool, about 55% complete tuples, 40% with one hidden value and 5% with
// three. The set-up pass derives every pool body once, so the timed
// requests are all cache hits.
func buildDeriveHot(e *env, rng *rand.Rand, seconds int, scale float64) *workload {
	w := &workload{name: "derive_hot", cacheSize: defaultCache, passes: 1}
	n := scaled(hotTuples, scale)
	for b := 0; b < hotPool; b++ {
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			switch u := rng.Float64(); {
			case u < 0.55:
				tuples[i], _ = e.hide(rng, 0)
			case u < 0.95:
				tuples[i], _ = e.hide(rng, 1)
			default:
				tuples[i], _ = e.hide(rng, 3)
			}
		}
		w.bodies = append(w.bodies, e.csvBody(tuples))
		w.bodyTuples = append(w.bodyTuples, n)
		w.warm = append(w.warm, request{kind: kindDerive, path: "/derive", body: w.bodies[b], ref: b})
	}
	for i, total := 0, readCount(seconds, hotPerSecond); i < total; i++ {
		b := rng.Intn(hotPool)
		w.seq = append(w.seq, request{kind: kindDerive, path: "/derive", body: w.bodies[b], ref: b})
	}
	w.windows = cutWindows(w.seq, 1)
	return w
}

// buildDeriveCold: bodies of tuples with 3 of 10 values hidden, from one
// fresh stream, so nearly every evidence pattern is new and the engine
// caches, sized at an eighth of the patterns, thrash. The set-up posts
// coldWarm further bodies of the stream, drawn after the sequence.
func buildDeriveCold(e *env, rng *rand.Rand, seconds int, scale float64) *workload {
	total := readCount(seconds, coldPerSecond)
	n := scaled(coldTuples, scale)
	w := &workload{name: "derive_cold", cacheSize: max(1, total*n/coldCacheShare), passes: coldPasses}
	body := func() []byte {
		tuples := make([]relation.Tuple, n)
		for i := range tuples {
			tuples[i], _ = e.hide(rng, 3)
		}
		return e.csvBody(tuples)
	}
	for b := 0; b < total; b++ {
		w.bodies = append(w.bodies, body())
		w.bodyTuples = append(w.bodyTuples, n)
		w.seq = append(w.seq, request{kind: kindDerive, path: "/derive", body: w.bodies[b], ref: b})
	}
	for b := 0; b < coldWarm; b++ {
		w.warm = append(w.warm, request{kind: kindDerive, path: "/derive", body: body()})
	}
	w.windows = cutWindows(w.seq, 1)
	return w
}

// liveReads is query_live's read count: readCount rounded up so that
// every window holds whole turns of liveCycle, the same read mix.
func liveReads(seconds int) int {
	turn := windowCount * len(liveCycle)
	return (readCount(seconds, livePerSecond) + turn - 1) / turn * turn
}

// liveDataset is the id the server assigns to the first registered
// dataset.
const liveDataset = "ds1"

// liveQueries are query_live's reads. Each scans the whole dataset and
// all but groupby are selective on two attributes, so multi-missing
// tuples meet the dissociation-bound tier.
var liveQueries = []querySpec{
	{op: kindCount, where: "a4=v1,a8>=v2", minProb: 0.5},
	{op: kindTopK, where: "a2=v0,a9<=v1", k: 10},
	{op: kindExists, where: "a5=v3,a7=v2", minProb: 0.9},
	{op: kindGroupBy, where: "a0=v1", groupBy: "a8"},
}

// liveCycle is the order reads cycle through liveQueries: count every
// other read, then topk, exists and groupby in turn. Sorted by latency
// the kinds run exists < count < topk < groupby, so the median read falls
// inside the count population (at its 67th percentile) rather than on a
// boundary between two kinds, and p99 inside groupby's. Top-k is not the
// median population because its cost moves with how many revealed cells
// turned tuples into certain matches, which the seed decides.
var liveCycle = []int{0, 1, 0, 2, 0, 3}

// buildQueryLive: a registered dataset (half complete, 40% one hidden
// value, 10% two or three hidden) receiving a seeded interleave of
// /observe writes, each revealing the true value of one hidden cell, and
// /query reads cycling through liveQueries. The dataset is drawn from
// datasetSeed, like the model, because the cost of a top-k read depends
// on which tuples compete for its ranks: with a dataset per seed the
// read mix's cost moved by a tenth between seeds. The seed draws which
// cells are revealed and when.
func buildQueryLive(e *env, rng *rand.Rand, seconds int, scale float64) (*workload, error) {
	w := &workload{name: "query_live", cacheSize: defaultCache, passes: 1, queries: liveQueries}
	n := scaled(liveTuples, scale)
	type cell struct{ index, attr, val int }
	var hidden []cell
	drng := rand.New(rand.NewSource(datasetSeed))
	for i := 0; i < n; i++ {
		var t, truth relation.Tuple
		switch u := drng.Float64(); {
		case u < 0.5:
			t, truth = e.hide(drng, 0)
		case u < 0.9:
			t, truth = e.hide(drng, 1)
		case u < 0.95:
			t, truth = e.hide(drng, 2)
		default:
			t, truth = e.hide(drng, 3)
		}
		w.dataset = append(w.dataset, t)
		for _, a := range t.MissingAttrs() {
			hidden = append(hidden, cell{i, a, truth[a]})
		}
	}
	w.datasetBody = e.csvBody(w.dataset)
	rng.Shuffle(len(hidden), func(i, j int) { hidden[i], hidden[j] = hidden[j], hidden[i] })

	params := make([]string, len(w.queries))
	for i, q := range w.queries {
		v := q.params()
		v.Set("dataset", liveDataset)
		params[i] = "/query?" + v.Encode()
		w.warm = append(w.warm, request{kind: q.op, path: params[i], ref: i})
	}
	for reads, total := 0, liveReads(seconds); reads < total; {
		if rng.Float64() < liveWriteShare && len(w.observes) < len(hidden) {
			c := hidden[len(w.observes)]
			body, err := json.Marshal(map[string]any{
				"dataset": liveDataset,
				"observations": []map[string]any{{
					"index": c.index, "attr": e.schema.Attrs[c.attr].Name,
					"value": e.schema.Attrs[c.attr].Domain[c.val],
				}},
			})
			if err != nil {
				return nil, err
			}
			w.seq = append(w.seq, request{kind: kindObserve, path: "/observe", body: body, ref: len(w.observes)})
			w.observes = append(w.observes, observation{c.index, c.attr, c.val})
			continue
		}
		q := liveCycle[reads%len(liveCycle)]
		reads++
		w.seq = append(w.seq, request{kind: w.queries[q].op, path: params[q], ref: q})
	}
	w.windows = cutWindows(w.seq, len(liveCycle))
	return w, nil
}
