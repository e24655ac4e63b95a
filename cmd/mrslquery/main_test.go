package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

const queryCSV = `age,inc
20,50K
20,50K
20,50K
30,100K
30,100K
30,100K
40,100K
40,100K
?,50K
30,?
?,?
`

func setup(t *testing.T) (modelPath, dataPath string) {
	t.Helper()
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "data.csv")
	if err := os.WriteFile(dataPath, []byte(queryCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := repro.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.Learn(rel, repro.LearnOptions{SupportThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	return modelPath, dataPath
}

func opts(mut func(*options)) options {
	o := options{
		Op: "count", K: 10, Samples: 200, BurnIn: 20, Seed: 1, Workers: 4,
	}
	if mut != nil {
		mut(&o)
	}
	return o
}

func TestRunCount(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) { o.Where = "inc=100K" })); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "expected count:") ||
		!strings.Contains(out.String(), "query stats:") {
		t.Errorf("count output missing expected lines:\n%s", out.String())
	}
}

func TestRunCountThreshold(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Where, o.MinProb = "inc=100K", 0.5
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tuples with P >= 0.5:") {
		t.Errorf("thresholded count output:\n%s", out.String())
	}
}

func TestRunExists(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Op, o.Where = "exists", "age=30,inc=100K"
	})); err != nil {
		t.Fatal(err)
	}
	// The fixture holds certain witnesses, so the answer is an exact yes
	// decided with zero inference.
	if !strings.Contains(out.String(), "exists: yes") {
		t.Errorf("exists output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 derived") {
		t.Errorf("certain witness should prune all derivation:\n%s", out.String())
	}
}

func TestRunTopK(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Op, o.Where, o.K = "topk", "age=30", 3
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top 3 matching completions:") {
		t.Errorf("topk output:\n%s", out.String())
	}
}

// TestTopKTieBreakDeterministic pins topk tie-breaking: rows of equal
// probability keep input order, so the rendered output is byte-identical
// for every chain pool size (the three certain age=30 tuples all tie at
// probability 1 and must appear first, in input order).
func TestTopKTieBreakDeterministic(t *testing.T) {
	model, data := setup(t)
	var ref bytes.Buffer
	if err := run(&ref, model, data, opts(func(o *options) {
		o.Op, o.Where, o.K, o.Workers = "topk", "age=30", 5, 2
	})); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ref.String()), "\n")
	for i := 1; i <= 3; i++ {
		if !strings.HasPrefix(lines[i], "  1.0000") || !strings.Contains(lines[i], "certain") {
			t.Errorf("row %d is not a leading certain tie: %q", i, lines[i])
		}
	}
	for _, workers := range []int{0, 1, 4, 8} {
		var out bytes.Buffer
		if err := run(&out, model, data, opts(func(o *options) {
			o.Op, o.Where, o.K, o.Workers = "topk", "age=30", 5, workers
		})); err != nil {
			t.Fatal(err)
		}
		if out.String() != ref.String() {
			t.Errorf("topk output differs at %d workers:\n%s\nvs\n%s", workers, out.String(), ref.String())
		}
	}
}

func TestRunGroupBy(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Op, o.GroupBy = "groupby", "age"
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "expected histogram of age:") {
		t.Errorf("groupby output:\n%s", out.String())
	}
	if err := run(&out, model, data, opts(func(o *options) { o.Op = "groupby" })); err == nil {
		t.Error("groupby without -groupby should fail")
	}
	if err := run(&out, model, data, opts(func(o *options) {
		o.Op, o.GroupBy = "groupby", "bogus"
	})); err == nil {
		t.Error("unknown groupby attribute should fail")
	}
}

// TestRunExplain: -explain prints the evaluation plan (predicate order,
// tiers, bound usage) ahead of the answer.
func TestRunExplain(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Where, o.MinProb, o.Explain = "inc=100K", 0.5, true
	})); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plan:", "predicate order:", "tiers:", "dissociation bounds:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("explain output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(out.String(), "tuples with P >= 0.5:") {
		t.Errorf("explain must not replace the answer:\n%s", out.String())
	}
}

// TestRunFlagValidation: decision flags are validated up front with
// actionable errors instead of silently producing empty or unbounded
// results.
func TestRunFlagValidation(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"minprob above 1", func(o *options) { o.Where, o.MinProb = "inc=100K", 1.5 }, "-minprob"},
		{"minprob below 0", func(o *options) { o.Where, o.MinProb = "inc=100K", -0.5 }, "-minprob"},
		{"minprob NaN", func(o *options) { o.Where, o.MinProb = "inc=100K", math.NaN() }, "-minprob"},
		{"topk k zero", func(o *options) { o.Op, o.Where, o.K = "topk", "inc=100K", 0 }, "-k"},
		{"topk k negative", func(o *options) { o.Op, o.Where, o.K = "topk", "inc=100K", -3 }, "-k"},
	}
	for _, c := range cases {
		err := run(&out, model, data, opts(c.mut))
		if err == nil {
			t.Errorf("%s: run should fail", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the flag %q", c.name, err, c.want)
		}
	}
	// A negative -k on non-topk ops stays ignored, as before.
	if err := run(&out, model, data, opts(func(o *options) { o.Where, o.K = "inc=100K", -1 })); err != nil {
		t.Errorf("count with unused -k: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.Op, o.Where = "explode", "inc=100K"
	})); err == nil {
		t.Error("unknown op should fail")
	}
	if err := run(&out, model, data, opts(nil)); err == nil {
		t.Error("count without -where should fail")
	}
	if err := run(&out, model, data, opts(func(o *options) {
		o.Where = "inc@100K"
	})); err == nil {
		t.Error("malformed condition should fail")
	}
	if err := run(&out, model, data, opts(func(o *options) {
		o.Where, o.MinProb = "inc=100K", 1.5
	})); err == nil {
		t.Error("out-of-range minprob should fail")
	}
	if err := run(&out, filepath.Join(t.TempDir(), "no.json"), data, opts(func(o *options) {
		o.Where = "inc=100K"
	})); err == nil {
		t.Error("missing model should fail")
	}
	if err := run(&out, model, filepath.Join(t.TempDir(), "no.csv"), opts(func(o *options) {
		o.Where = "inc=100K"
	})); err == nil {
		t.Error("missing data should fail")
	}
}

const peopleCSV = `age,pid
20,p1
20,p1
30,p2
30,p2
40,p3
?,p1
30,?
20,p9
`

const financeCSV = `pid,inc
p1,?
p2,100K
p3,50K
`

// setupSPJ reuses the single-relation model (its schema is exactly the
// people ⋈ finance join) and writes the two base CSVs: p1 is shared by
// three rows and misses inc, p9 dangles, and one row misses its FK.
func setupSPJ(t *testing.T) (modelPath, relsSpec string) {
	t.Helper()
	modelPath, _ = setup(t)
	dir := t.TempDir()
	people := filepath.Join(dir, "people.csv")
	finance := filepath.Join(dir, "finance.csv")
	if err := os.WriteFile(people, []byte(peopleCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(finance, []byte(financeCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath, "people=" + people + ",finance=" + finance
}

func TestRunSQLCount(t *testing.T) {
	model, rels := setupSPJ(t)
	var out bytes.Buffer
	if err := run(&out, model, "", opts(func(o *options) {
		o.SQL, o.Rels = "from people join finance on pid=pid where age=30", rels
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "expected count:") ||
		!strings.Contains(out.String(), "query stats:") {
		t.Errorf("sql count output:\n%s", out.String())
	}
}

// TestRunSQLExistsDissociated: the shared uncertain finance tuple makes
// the plan unsafe, so exists reports the dissociated mass with its sound
// interval.
func TestRunSQLExistsDissociated(t *testing.T) {
	model, rels := setupSPJ(t)
	var out bytes.Buffer
	if err := run(&out, model, "", opts(func(o *options) {
		o.Op = "exists"
		o.SQL, o.Rels = "from people join finance on pid=pid where inc=100K", rels
	})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exists: yes") ||
		!strings.Contains(out.String(), "dissociated lineage") {
		t.Errorf("dissociated exists output:\n%s", out.String())
	}
}

// TestRunSQLProjection: a select list switches to distinct-answer mode;
// rows render in the projected answer schema.
func TestRunSQLProjection(t *testing.T) {
	model, rels := setupSPJ(t)
	var out bytes.Buffer
	if err := run(&out, model, "", opts(func(o *options) {
		o.Op, o.K = "topk", 2
		o.SQL, o.Rels = "select age from people join finance on pid=pid where inc=100K", rels
	})); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "top 2 matching completions") {
		t.Errorf("projected topk output:\n%s", s)
	}
	// Projected rows carry a single attribute — no comma-joined full
	// tuples in the rendered rows.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "  0.") || strings.HasPrefix(line, "  1.") {
			if strings.Contains(line, ",") {
				t.Errorf("projected row renders a full tuple: %q", line)
			}
		}
	}
}

// TestRunSQLExplain: -explain over a statement includes the join order
// and the safety verdict.
func TestRunSQLExplain(t *testing.T) {
	model, rels := setupSPJ(t)
	var out bytes.Buffer
	if err := run(&out, model, "", opts(func(o *options) {
		o.Op, o.Explain = "exists", true
		o.SQL, o.Rels = "from people join finance on pid=pid where inc=100K", rels
	})); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"join order: people ⋈ finance", "safety: unsafe"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sql explain missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSQLValidation(t *testing.T) {
	model, rels := setupSPJ(t)
	_, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, opts(func(o *options) {
		o.SQL, o.Rels = "from people join finance on pid=pid", rels
	})); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-sql with -in: err = %v", err)
	}
	if err := run(&out, model, "", opts(func(o *options) {
		o.SQL, o.Rels = "from people join finance on pid=pid", "people=nope"
	})); err == nil {
		t.Error("bad -rels entry should fail")
	}
	if err := run(&out, model, "", opts(func(o *options) {
		o.SQL, o.Rels = "from people join towns on pid=pid", rels
	})); err == nil || !strings.Contains(err.Error(), "towns") {
		t.Errorf("unbound relation: err = %v", err)
	}
}
