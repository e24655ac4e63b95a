package derive

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gibbs"
	"repro/internal/gibbs/gibbstest"
	"repro/internal/pdb"
	"repro/internal/relation"
)

var updateGoldens = flag.Bool("update", false, "rewrite the sink golden files")

// matchmakingEngine learns from the paper's matchmaking relation and
// returns an engine — every stage is deterministic across processes,
// which is what makes byte-stable goldens possible.
func matchmakingEngine(t *testing.T) (*Engine, *relation.Relation) {
	t.Helper()
	rel := relation.Matchmaking()
	rc, _ := rel.Split()
	m, err := core.Learn(rc, core.Config{SupportThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, Config{
		Method:  bestAveraged(),
		Gibbs:   gibbs.Config{Samples: 200, BurnIn: 20, Method: bestAveraged(), Seed: 5},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, rel
}

// checkOracle holds every multi-missing block e derives for rel to the
// answer of its tier (gibbstest.CheckBlock): the dense reference on the
// exact tier, the content-seeded chain otherwise. The golden tests call
// it before they compare or rewrite a golden, so a golden is only ever
// regenerated from blocks the oracle has checked.
func checkOracle(t *testing.T, e *Engine, rel *relation.Relation) {
	t.Helper()
	db, err := deriveDB(e, rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range db.Blocks {
		if b.Base.NumMissing() < 2 {
			continue
		}
		if _, err := gibbstest.CheckBlock(e.model, e.cfg.Gibbs, b); err != nil {
			t.Fatal(err)
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/derive -update to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output is not byte-identical to the golden file\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestJSONLSinkGolden pins the NDJSON rendering — the serving wire format
// of cmd/mrslserve — byte for byte.
func TestJSONLSinkGolden(t *testing.T) {
	e, rel := matchmakingEngine(t)
	var buf bytes.Buffer
	if err := e.Stream(context.Background(), rel, Pools{}, NewJSONLSink(&buf, rel.Schema)); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, e, rel)
	checkGolden(t, "matchmaking_derived.jsonl.golden", buf.Bytes())

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != rel.Len()+1 {
		t.Errorf("NDJSON has %d lines, want %d (schema + one per tuple)", len(lines), rel.Len()+1)
	}
	if !strings.Contains(lines[0], `"kind":"schema"`) {
		t.Errorf("first line is not the schema record: %s", lines[0])
	}
}

// TestCollectorMatchesStream: the Collector sink materializes exactly the
// items the stream emits.
func TestCollectorMatchesStream(t *testing.T) {
	e, rel := matchmakingEngine(t)
	c := NewCollector(rel.Schema)
	if err := e.Stream(context.Background(), rel, Pools{}, c); err != nil {
		t.Fatal(err)
	}
	db := pdb.NewDatabase(rel.Schema)
	if err := e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		if it.Certain() {
			return db.AddCertain(it.Tuple)
		}
		return db.AddBlock(it.Block)
	})); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, c.Database(), db, "collector vs emitted items")
}

// TestEmptyStreamSinks: the JSONL sink writes its schema record even
// for an empty stream.
func TestEmptyStreamSinks(t *testing.T) {
	e, rel := matchmakingEngine(t)
	empty := relation.NewRelation(rel.Schema)
	var jsonb bytes.Buffer
	if err := e.Stream(context.Background(), empty, Pools{}, NewJSONLSink(&jsonb, rel.Schema)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonb.String(), `"kind":"schema"`) {
		t.Errorf("empty JSONL stream wrote %q, want schema record", jsonb.String())
	}
}

// jsonlItem and jsonlAlt are the item record shapes as encoding/json
// renders them: the oracle JSONLSink.Emit's appender must match byte for
// byte. Kind "certain" carries Values, kind "block" carries Base (with
// "?" for missing) and Alts.
type jsonlItem struct {
	Kind   string     `json:"kind"` // "certain" or "block"
	Index  int        `json:"index"`
	Values []string   `json:"values,omitempty"`
	Base   []string   `json:"base,omitempty"`
	Alts   []jsonlAlt `json:"alts,omitempty"`
}

type jsonlAlt struct {
	Values []string `json:"values"`
	P      float64  `json:"p"`
}

// oracleLabels renders t as domain labels, "?" for missing.
func oracleLabels(s *relation.Schema, t relation.Tuple) []string {
	out := make([]string, len(t))
	for i, v := range t {
		if v == relation.Missing {
			out[i] = relation.MissingLabel
		} else {
			out[i] = s.Attrs[i].Domain[v]
		}
	}
	return out
}

// oracleRecord renders one item through encoding/json.
func oracleRecord(s *relation.Schema, it Item) ([]byte, error) {
	rec := jsonlItem{Index: it.Index}
	if it.Certain() {
		rec.Kind = "certain"
		rec.Values = oracleLabels(s, it.Tuple)
	} else {
		rec.Kind = "block"
		rec.Base = oracleLabels(s, it.Block.Base)
		rec.Alts = make([]jsonlAlt, len(it.Block.Alts))
		for k, a := range it.Block.Alts {
			rec.Alts[k] = jsonlAlt{Values: oracleLabels(s, a.Tuple), P: a.Prob}
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// oracleSchema renders the schema record through encoding/json.
func oracleSchema(s *relation.Schema) []byte {
	rec := jsonlSchema{Kind: "schema", Attrs: make([]jsonlAttr, s.NumAttrs())}
	for i, a := range s.Attrs {
		rec.Attrs[i] = jsonlAttr{Name: a.Name, Domain: a.Domain}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// checkEmitMatchesOracle emits items through a JSONLSink and through the
// encoding/json oracle and requires the same bytes, and the same error
// for an item the oracle cannot encode (which must write nothing).
func checkEmitMatchesOracle(t *testing.T, s *relation.Schema, items []Item) {
	t.Helper()
	var got bytes.Buffer
	sink := NewJSONLSink(&got, s)
	if err := sink.open(); err != nil {
		t.Fatal(err)
	}
	want := oracleSchema(s)
	for _, it := range items {
		rec, werr := oracleRecord(s, it)
		before := got.Len()
		gerr := sink.Emit(it)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("item %d: Emit error %v, encoding/json error %v", it.Index, gerr, werr)
		}
		if gerr != nil {
			if got.Len() != before {
				t.Fatalf("item %d: failed Emit wrote %q", it.Index, got.Bytes()[before:])
			}
			continue
		}
		want = append(want, rec...)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("JSONLSink bytes differ from encoding/json:\ngot:  %q\nwant: %q", got.Bytes(), want)
	}
}

// TestJSONLSinkMatchesEncodingJSON: a whole derivation through the sink
// is byte-identical to encoding/json rendering the same records.
func TestJSONLSinkMatchesEncodingJSON(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 89)
	rel := dirtyRelation(t, inst, rng, 200)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	if err := e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		items = append(items, it)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	checkEmitMatchesOracle(t, rel.Schema, items)
}

// TestJSONLSinkRejectsNonFinite: NaN and ±Inf probabilities fail the
// item with encoding/json's error and write nothing.
func TestJSONLSinkRejectsNonFinite(t *testing.T) {
	s := relation.MatchmakingSchema()
	base := make(relation.Tuple, s.NumAttrs())
	base[0] = relation.Missing
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		alt := base.Clone()
		alt[0] = 1
		it := Item{Index: 3, Tuple: base, Block: &pdb.Block{Base: base, Alts: []pdb.Alternative{{Tuple: alt, Prob: p}}}}
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf, s)
		if err := sink.Close(); err != nil { // the schema record
			t.Fatal(err)
		}
		n := buf.Len()
		err := sink.Emit(it)
		if err == nil {
			t.Fatalf("p=%v: Emit succeeded, want an error", p)
		}
		if _, want := oracleRecord(s, it); want == nil || want.Error() != err.Error() {
			t.Errorf("p=%v: Emit error %q, encoding/json error %v", p, err, want)
		}
		if buf.Len() != n {
			t.Errorf("p=%v: failed Emit wrote %q", p, buf.Bytes()[n:])
		}
	}
}

// TestJSONLSinkEmitAllocs: once the sink is open and its buffer has
// grown, Emit allocates nothing.
func TestJSONLSinkEmitAllocs(t *testing.T) {
	e, rel := matchmakingEngine(t)
	var items []Item
	if err := e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		items = append(items, it)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	sink := NewJSONLSink(io.Discard, rel.Schema)
	emitAll := func() {
		for _, it := range items {
			if err := sink.Emit(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	emitAll()
	if allocs := testing.AllocsPerRun(50, emitAll); allocs != 0 {
		t.Errorf("a warmed Emit of %d items allocates %v times, want 0", len(items), allocs)
	}
}

// FuzzJSONLSinkEmit compares Emit's bytes with encoding/json over random
// schemas, certain tuples and blocks. The fuzzed label lands in the
// domains and the fuzzed probability in the first alternative; the seeds
// cover both float formats and their cut-over points, the smallest
// subnormal, and labels that encoding/json escapes or repairs.
func FuzzJSONLSinkEmit(f *testing.F) {
	labels := []string{"a", "<b>", "x&y", `q"uote`, `back\slash`, "line\u2028sep", "bad\xffutf8", "\x00ctl", "é"}
	probs := []float64{0, 1, 9.99999000001e-7, 1e-6, 5e-324, 1e21, 0.25, 1.0 / 3}
	for i, p := range probs {
		f.Add(int64(i), p, labels[i%len(labels)])
	}
	for i, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(int64(100+i), p, "nan")
	}
	f.Fuzz(func(t *testing.T, seed int64, p float64, label string) {
		rng := rand.New(rand.NewSource(seed))
		pool := append([]string{label, label + label, strconv.FormatInt(seed, 10)}, labels...)
		attrs := make([]relation.Attribute, rng.Intn(4))
		for a := range attrs {
			domain := make([]string, 1+rng.Intn(3))
			for v := range domain {
				domain[v] = pool[rng.Intn(len(pool))]
			}
			attrs[a] = relation.Attribute{Name: pool[rng.Intn(len(pool))], Domain: domain}
		}
		// The sink needs only the attributes, so the schema skips
		// NewSchema's checks and admits any name or label.
		s := &relation.Schema{Attrs: attrs}
		tuple := func(missing bool) relation.Tuple {
			t := make(relation.Tuple, len(attrs))
			for a := range t {
				if missing && rng.Intn(2) == 0 {
					t[a] = relation.Missing
				} else {
					t[a] = rng.Intn(len(attrs[a].Domain))
				}
			}
			return t
		}
		// Item 0 is a block whose first alternative carries p; the rest
		// are certain tuples or blocks of zero to three alternatives.
		var items []Item
		for i := 0; i < 4; i++ {
			if i > 0 && rng.Intn(3) == 0 {
				items = append(items, Item{Index: i, Tuple: tuple(false)})
				continue
			}
			b := &pdb.Block{Base: tuple(true)}
			prob := p
			for k := rng.Intn(4); k >= 0 && (k > 0 || i == 0); k-- {
				b.Alts = append(b.Alts, pdb.Alternative{Tuple: tuple(false), Prob: prob})
				prob = math.Ldexp(rng.Float64(), -rng.Intn(80)) * float64(1-2*rng.Intn(2))
			}
			items = append(items, Item{Index: i * int(seed%1000), Tuple: b.Base, Block: b})
		}
		checkEmitMatchesOracle(t, s, items)
	})
}
