package query

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/derive"
	"repro/internal/obs"
)

// TestAnalyzeTimingAttached: Spec.Analyze attaches a PlanInfo.Timing
// block whose stages account for the evaluation — on an inference-heavy
// workload (a cold engine deriving every open tuple, a fifth of them by
// chains) the plan stage plus the per-tier durations sum to within 20% of
// the measured wall time. The scan and fold between stages are untimed,
// so a workload whose inference takes well under a millisecond would be
// judged by how often a scheduler stall lands there.
func TestAnalyzeTimingAttached(t *testing.T) {
	m, rel := tieredFixture(t, 17)
	eng, err := derive.New(m, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(m.Schema, Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}, Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Plan.Timing
	if tm == nil {
		t.Fatal("Analyze did not attach Plan.Timing")
	}
	if tm.WallMS <= 0 {
		t.Fatalf("WallMS = %v, want > 0", tm.WallMS)
	}
	if len(tm.Tiers) == 0 {
		t.Fatal("no tier timings on a mixed relation")
	}
	var tuples, covered = int64(0), tm.PlanMS
	seen := map[string]bool{}
	for _, tr := range tm.Tiers {
		if tr.Tuples <= 0 || tr.DurationMS < 0 {
			t.Errorf("tier %s: tuples=%d duration=%v", tr.Tier, tr.Tuples, tr.DurationMS)
		}
		if seen[tr.Tier] {
			t.Errorf("tier %s appears twice", tr.Tier)
		}
		seen[tr.Tier] = true
		covered += tr.DurationMS
		if tr.Tier != "prefetch" { // prefetch hands off tuples also counted at resolution
			tuples += tr.Tuples
		}
	}
	if !seen["prefetch"] || !seen["vote"] || !seen["derive"] {
		t.Errorf("missing expected tiers in %v", tm.Tiers)
	}
	c := res.Counters
	if want := c.Bounded + c.Derived; tuples != want {
		t.Errorf("timed resolution tuples = %d, counters say %d", tuples, want)
	}
	if covered < 0.8*tm.WallMS {
		t.Errorf("stages cover %.3fms of %.3fms wall (< 80%%)", covered, tm.WallMS)
	}
	if covered > 1.05*tm.WallMS {
		t.Errorf("stages cover %.3fms, exceeding %.3fms wall", covered, tm.WallMS)
	}
	if !strings.Contains(res.Plan.String(), "timing: plan ") {
		t.Errorf("PlanInfo.String() lacks timing block:\n%s", res.Plan.String())
	}
}

// TestTimingOffByDefault: without Analyze (and without a trace), no
// timing block is attached — the summary stays byte-identical to the
// pre-observability plan output.
func TestTimingOffByDefault(t *testing.T) {
	m, rel := fixture(t, 31)
	eng, err := derive.New(m, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(m.Schema, Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Timing != nil {
		t.Fatal("Timing attached without Analyze")
	}
	if strings.Contains(res.Plan.String(), "timing:") {
		t.Error("plan summary mentions timing without Analyze")
	}
}

// TestTraceEnablesTimingAndRecordsSpans: a Trace on the context turns
// timing on even without Analyze, and the per-stage spans mirror into
// the recorder, ending with query.wall.
func TestTraceEnablesTimingAndRecordsSpans(t *testing.T) {
	m, rel := fixture(t, 31)
	eng, err := derive.New(m, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(m.Schema, Spec{Op: Exists, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	res, err := Eval(obs.WithTrace(context.Background(), tr), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Timing == nil {
		t.Fatal("trace on context did not enable timing")
	}
	spans := tr.Spans()
	if len(spans) < 2 {
		t.Fatalf("recorded %d spans, want >= 2", len(spans))
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"query.plan", "query.wall"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, spans)
		}
	}
}

// TestAnalyzeNeverChangesAnswers: the bit-identity property — for random
// specs across every operator, evaluating with Analyze (or a context
// trace) returns exactly the same answer, rows, groups, and counters as
// evaluating without. Timing only observes.
func TestAnalyzeNeverChangesAnswers(t *testing.T) {
	m, rel := fixture(t, 31)
	rng := rand.New(rand.NewSource(99))
	for _, op := range []Op{Count, Exists, TopK, GroupBy} {
		for trial := 0; trial < 3; trial++ {
			spec := randomSpec(rng, m.Schema, op)

			eval := func(analyze, traced bool) *Result {
				t.Helper()
				s := spec
				s.Analyze = analyze
				q, err := Compile(m.Schema, s)
				if err != nil {
					t.Fatal(err)
				}
				// Fresh engine per run: identical cold-cache estimator state.
				eng, err := derive.New(m, engineConfig(2, 2))
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				if traced {
					ctx = obs.WithTrace(ctx, obs.NewTrace())
				}
				res, err := Eval(ctx, eng, rel, q)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			base := eval(false, false)
			for name, got := range map[string]*Result{
				"analyze": eval(true, false),
				"traced":  eval(false, true),
			} {
				if got.Plan.Timing == nil {
					t.Fatalf("%v/%s: timing expected on", op, name)
				}
				// Strip the observability-only fields before comparing.
				a, b := *base, *got
				a.Plan, b.Plan = nil, nil
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%v/%s: answer changed with timing on\nbase: %+v\ngot:  %+v", op, name, a, b)
				}
				if math.Float64bits(base.Expected) != math.Float64bits(got.Expected) ||
					math.Float64bits(base.Prob) != math.Float64bits(got.Prob) {
					t.Errorf("%v/%s: scalar answers not bit-identical", op, name)
				}
			}
		}
	}
}
