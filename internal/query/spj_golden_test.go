package query

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/gibbs"
	"repro/internal/gibbs/gibbstest"
	"repro/internal/relation"
	"repro/internal/vote"
)

var updateGoldens = flag.Bool("update", false, "rewrite the spj golden file")

// formatTuple renders a tuple as comma-joined labels ("?" for missing).
func formatTuple(s *relation.Schema, tu relation.Tuple) string {
	var b bytes.Buffer
	for i, v := range tu {
		if i > 0 {
			b.WriteByte(',')
		}
		if v == relation.Missing {
			b.WriteByte('?')
		} else {
			b.WriteString(s.Attrs[i].Domain[v])
		}
	}
	return b.String()
}

// TestSPJGolden pins the whole SQL-statement path — CSV join inputs,
// ParseSPJ, Bind, CompileSPJ, a plan-only Eval, Eval — byte-for-byte against a
// golden transcript. The model is the paper's matchmaking example split
// into people(age, edu, pid) and finance(pid, inc, nw) CSVs under
// testdata; every stage is deterministic (exact solves and content-seeded
// chains), so the rendered plans, verdicts, and probabilities are
// byte-stable across processes and worker counts. Before the transcript
// is compared or rewritten, every multi-missing block behind it is held
// to its tier's oracle (gibbstest.CheckBlock).
func TestSPJGolden(t *testing.T) {
	rc, _ := relation.Matchmaking().Split()
	m, err := core.Learn(rc, core.Config{SupportThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	method := vote.Method{Choice: core.BestVoters, Scheme: vote.Averaged}
	gibbsCfg := gibbs.Config{Samples: 200, BurnIn: 20, Method: method, Seed: 5}
	eng, err := derive.New(m, derive.Config{
		Method:  method,
		Gibbs:   gibbsCfg,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	inputs := make(map[string]*relation.Relation)
	for _, name := range []string{"people", "finance"} {
		f, err := os.Open(filepath.Join("testdata", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := relation.ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = rel
	}

	queries := []struct {
		stmt string
		spec Spec
	}{
		{"from people join finance on pid=pid where age=20", Spec{Op: Count}},
		{"from people join finance on pid=pid where inc=100K", Spec{Op: Exists}},
		{"from people join finance on pid=pid where inc=100K", Spec{Op: Exists, MinProb: 0.99}},
		{"from people join finance on pid=pid where nw=500K", Spec{Op: TopK, K: 3}},
		{"from people join finance on pid=pid where age>=30", Spec{Op: GroupBy, GroupBy: "edu"}},
		{"select edu from people join finance on pid=pid where inc=100K", Spec{Op: TopK, K: 3}},
	}

	var buf bytes.Buffer
	ctx := t.Context()
	var joined []*relation.Relation
	for _, qc := range queries {
		fmt.Fprintf(&buf, "== %v %s\n", qc.spec.Op, qc.stmt)
		st, err := ParseSPJ(qc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", qc.stmt, err)
		}
		spec, err := st.Bind(inputs, qc.spec, false)
		if err != nil {
			t.Fatalf("%s: %v", qc.stmt, err)
		}
		spj, err := CompileSPJ(m.Schema, spec)
		if err != nil {
			t.Fatalf("%s: %v", qc.stmt, err)
		}
		planned, err := Eval(ctx, eng, spj, spj.Query(), Options{PlanOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, spj.SourceRelation())
		buf.WriteString(planned.Plan.String())
		res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch qc.spec.Op {
		case Count:
			fmt.Fprintf(&buf, "expected count: %.6g\n", res.Expected)
		case Exists:
			fmt.Fprintf(&buf, "exists: %v P=%.6g earlystop=%v dissociated=%v", res.Exists, res.Prob, res.EarlyStop, res.Dissociated)
			if res.Bounds != nil {
				fmt.Fprintf(&buf, " bounds=[%.6g, %.6g]", res.Bounds.Lo, res.Bounds.Hi)
			}
			buf.WriteString("\n")
		case TopK:
			schema := m.Schema
			if spj.AnswerSchema() != nil {
				schema = spj.AnswerSchema()
			}
			for _, r := range res.Rows {
				fmt.Fprintf(&buf, "row %d: %s P=%.6g\n", r.Index, formatTuple(schema, r.Tuple), r.Prob)
			}
		case GroupBy:
			for _, g := range res.Groups {
				if g.Expected == 0 {
					continue
				}
				fmt.Fprintf(&buf, "%s: E=%.6g Var=%.6g\n", g.Label, g.Expected, g.Variance)
			}
		}
		buf.WriteString("\n")
	}

	tiers := make(map[bool]int) // multi-missing tuples checked, by exact tier
	for _, rel := range joined {
		for _, tu := range rel.Tuples {
			if tu.NumMissing() < 2 {
				continue
			}
			b, _, err := eng.ResolveBlock(ctx, tu, nil)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := gibbstest.CheckBlock(m, gibbsCfg, b)
			if err != nil {
				t.Fatal(err)
			}
			tiers[exact]++
		}
	}
	// [40 ? ? ?] (p9 joins no finance row) stays on chains: its kernel
	// nearly splits into three modes, so power iteration has not
	// converged within the chain's 220 sweeps.
	if tiers[true] == 0 || tiers[false] == 0 {
		t.Fatalf("blocks checked per tier (exact: true/false) = %v, want both tiers", tiers)
	}

	path := filepath.Join("testdata", "spj_queries.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/query -update to create the golden)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("transcript is not byte-identical to the golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
