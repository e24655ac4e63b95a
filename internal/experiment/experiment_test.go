package experiment

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bn"
)

// tinyOpt returns minimal options for fast unit tests.
func tinyOpt() Options {
	o := Quick()
	o.TrainSize = 1500
	o.TrainSizes = []int{400, 1200}
	o.Supports = []float64{0.01, 0.1}
	o.TestCount = 60
	o.GibbsSamples = 150
	o.GibbsSampleCounts = []int{50, 150}
	o.GibbsBurnIn = 30
	o.WorkloadSizes = []int{30, 60}
	return o
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{},
		{Instances: 1, Splits: 1, TrainSize: 5, Support: 0.1, TestCount: 10},
		{Instances: 1, Splits: 1, TrainSize: 100, Support: 0, TestCount: 10},
		{Instances: 1, Splits: 1, TrainSize: 100, Support: 0.1, TestCount: 0},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("options %d should fail validation", i)
		}
	}
	if err := Quick().validate(); err != nil {
		t.Errorf("Quick() invalid: %v", err)
	}
	if err := Paper().validate(); err != nil {
		t.Errorf("Paper() invalid: %v", err)
	}
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	a := seedFor(1, "x", 1, 2)
	b := seedFor(1, "x", 1, 2)
	c := seedFor(1, "x", 2, 1)
	d := seedFor(2, "x", 1, 2)
	e := seedFor(1, "y", 1, 2)
	if a != b {
		t.Error("seedFor not deterministic")
	}
	if a == c || a == d || a == e {
		t.Error("seedFor collides across labels/parts")
	}
}

func TestMakeEnvSplit(t *testing.T) {
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	opt := tinyOpt()
	env, err := MakeEnv(top, opt, 0, 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	if env.Train.Len() != 900 {
		t.Errorf("train size = %d, want 900", env.Train.Len())
	}
	if len(env.Test) < 90 {
		t.Errorf("test size = %d, want ~100", len(env.Test))
	}
	// Different instances produce different CPTs.
	env2, err := MakeEnv(top, opt, 1, 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range env.Inst.CPTs[0].Rows[0] {
		if env.Inst.CPTs[0].Rows[0][i] != env2.Inst.CPTs[0].Rows[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different instance indices produced identical CPTs")
	}
	// Same arguments reproduce the same env.
	env3, err := MakeEnv(top, opt, 0, 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Train.Tuples[0].Equal(env3.Train.Tuples[0]) {
		t.Error("MakeEnv not deterministic")
	}
}

func TestTestWorkloadMissingCounts(t *testing.T) {
	top, _ := bn.ByID("BN9")
	opt := tinyOpt()
	env, err := MakeEnv(top, opt, 0, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 5} {
		wl := env.TestWorkload(rng, 20, k)
		for _, tu := range wl {
			if tu.NumMissing() != k {
				t.Errorf("k=%d: tuple has %d missing", k, tu.NumMissing())
			}
		}
	}
	// Requests beyond attrs-1 are clamped.
	wl := env.TestWorkload(rng, 5, 99)
	for _, tu := range wl {
		if tu.NumMissing() != top.NumAttrs()-1 {
			t.Errorf("clamping failed: %d missing", tu.NumMissing())
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("xx", 0.123456)
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "0.1235") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0.5:     "0.5",
		1:       "1",
		0.12345: "0.1235",
		0:       "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRunTable1MatchesCatalog(t *testing.T) {
	tab := RunTable1()
	if len(tab.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(tab.Rows))
	}
	if tab.Rows[0][0] != "BN1" || tab.Rows[19][0] != "BN20" {
		t.Errorf("unexpected row ids: %v, %v", tab.Rows[0][0], tab.Rows[19][0])
	}
}

func TestRunFig7(t *testing.T) {
	tab, err := RunFig7(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Errorf("rows = %d, want 10", len(tab.Rows))
	}
	if _, err := RunFig7([]string{"BN99"}); err == nil {
		t.Error("unknown network should fail")
	}
}

// TestFig4aBuildTimeGrowsWithTrainingSize: the paper observes linear
// growth; at minimum, more data must not be drastically cheaper.
func TestFig4aShape(t *testing.T) {
	opt := tinyOpt()
	nets := []string{"BN8", "BN13"}
	points, tab, err := RunFig4a(opt, nets)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(opt.TrainSizes) {
		t.Fatalf("points = %d, want %d", len(points), len(opt.TrainSizes))
	}
	if points[len(points)-1].AvgBuildSec < points[0].AvgBuildSec*0.5 {
		t.Errorf("build time shrank with more data: %v -> %v",
			points[0].AvgBuildSec, points[len(points)-1].AvgBuildSec)
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

// TestFig4cModelSizeDropsWithSupport: the paper observes a sharp
// (super-linear) drop in model size as the support threshold rises.
func TestFig4cShape(t *testing.T) {
	opt := tinyOpt()
	nets := []string{"BN8", "BN13"}
	points, tab, err := RunFig4c(opt, nets)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(opt.Supports) {
		t.Fatalf("points = %d, want %d", len(points), len(opt.Supports))
	}
	first, last := points[0], points[len(points)-1]
	if first.Support >= last.Support {
		t.Fatal("supports not increasing")
	}
	if last.AvgModelSize >= first.AvgModelSize {
		t.Errorf("model size did not drop with support: %v -> %v",
			first.AvgModelSize, last.AvgModelSize)
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

// TestTable2BestMethodsAccurate: the paper's headline — best-averaged and
// best-weighted reach high accuracy on the small crown networks.
func TestTable2BestMethodsAccurate(t *testing.T) {
	opt := tinyOpt()
	opt.TrainSize = 4000
	opt.Support = 0.005
	rows, tab, err := RunTable2(opt, []string{"BN8", "BN9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		bestAvg := r.ByMethod[2]
		if bestAvg.KL > 0.1 {
			t.Errorf("%s best-averaged KL = %v, want <= 0.1", r.Network, bestAvg.KL)
		}
		if bestAvg.Top1 < 0.7 {
			t.Errorf("%s best-averaged top1 = %v, want >= 0.7", r.Network, bestAvg.Top1)
		}
	}
	if !strings.Contains(tab.Render(), "BN8") {
		t.Error("table missing BN8")
	}
}

// TestFig5AccuracyImprovesWithTrainingData.
func TestFig5Shape(t *testing.T) {
	opt := tinyOpt()
	opt.TrainSizes = []int{200, 3000}
	points, _, err := RunFig5(opt, []string{"BN8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Best-averaged KL should improve (or at worst stagnate) with 15x data.
	if points[1].ByMethod[2].KL > points[0].ByMethod[2].KL+0.02 {
		t.Errorf("KL rose with more data: %v -> %v",
			points[0].ByMethod[2].KL, points[1].ByMethod[2].KL)
	}
}

// TestFig6AccuracyImprovesWithLowerSupport.
func TestFig6Shape(t *testing.T) {
	opt := tinyOpt()
	opt.TrainSize = 3000
	opt.Supports = []float64{0.005, 0.2}
	points, _, err := RunFig6(opt, []string{"BN9"})
	if err != nil {
		t.Fatal(err)
	}
	lowSup, highSup := points[0], points[1]
	if lowSup.ByMethod[2].KL > highSup.ByMethod[2].KL+0.02 {
		t.Errorf("lower support should not be less accurate: %v vs %v",
			lowSup.ByMethod[2].KL, highSup.ByMethod[2].KL)
	}
}

func TestFig8PropertiesAndErrors(t *testing.T) {
	opt := tinyOpt()
	points, tab, err := RunFig8(opt, []string{"BN8", "BN9"}, "attrs")
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Property != 4 || points[1].Property != 6 {
		t.Errorf("attr properties = %v", points)
	}
	if len(tab.Rows) != 2 {
		t.Error("table rows mismatch")
	}
	if _, _, err := RunFig8(opt, []string{"BN8"}, "bogus"); err == nil {
		t.Error("unknown property should fail")
	}
	depthPts, _, err := RunFig8(opt, []string{"BN13"}, "depth")
	if err != nil {
		t.Fatal(err)
	}
	if depthPts[0].Property != 6 {
		t.Errorf("depth property = %d, want 6", depthPts[0].Property)
	}
	cardPts, _, err := RunFig8(opt, []string{"BN14"}, "card")
	if err != nil {
		t.Fatal(err)
	}
	if cardPts[0].Property != 4 {
		t.Errorf("card property = %d, want 4", cardPts[0].Property)
	}
}

// TestFig9InferenceTimeScalesWithBatch: more tuples take longer; per-tuple
// cost stays in the same ballpark.
func TestFig9Shape(t *testing.T) {
	opt := tinyOpt()
	points, tab, err := RunFig9(opt, []string{"BN8"}, []int{200, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1].InferSec < points[0].InferSec {
		t.Errorf("larger batch faster: %v < %v", points[1].InferSec, points[0].InferSec)
	}
	if points[0].ModelSize <= 0 {
		t.Error("model size not recorded")
	}
	if len(tab.Rows) != 2 {
		t.Error("table rows mismatch")
	}
}

// TestFig10AccuracyImprovesWithSamples: on BN8 the paper sees KL fall as
// samples per tuple grow.
func TestFig10Shape(t *testing.T) {
	opt := tinyOpt()
	opt.TrainSize = 4000
	opt.Support = 0.005
	opt.GibbsSampleCounts = []int{30, 600}
	points, tab, err := RunFig10(opt, []string{"BN8"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Points: missing=2 x2 counts, missing=3 x2 counts.
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	// For 2 missing attrs, 20x the samples should not be clearly worse.
	if points[1].KL > points[0].KL+0.05 {
		t.Errorf("KL rose with more samples: %v -> %v", points[0].KL, points[1].KL)
	}
	// The exact columns: the asymptote is shared by both N of a group,
	// and the chain's distance to its own target shrinks as N grows.
	for i := 0; i < len(points); i += 2 {
		lo, hi := points[i], points[i+1]
		if lo.Solved == 0 || lo.KLExact != hi.KLExact || lo.KLExact <= 0 {
			t.Errorf("missing=%d: exact columns %+v, %+v", lo.NumMissing, lo, hi)
		}
		if hi.KLExactChain >= lo.KLExactChain {
			t.Errorf("missing=%d: KL(exact||chain) did not fall with N: %v -> %v",
				lo.NumMissing, lo.KLExactChain, hi.KLExactChain)
		}
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

// TestFig11DAGBeatsBaseline: the tuple-DAG draws fewer points than
// tuple-at-a-time at every workload size.
func TestFig11Shape(t *testing.T) {
	opt := tinyOpt()
	opt.GibbsSamples = 80
	points, tab, err := RunFig11(opt, []string{"BN8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(opt.WorkloadSizes) {
		t.Fatalf("points = %d", len(points))
	}
	byWorkload := map[int]map[string]int{}
	for _, p := range points {
		if byWorkload[p.WorkloadSize] == nil {
			byWorkload[p.WorkloadSize] = map[string]int{}
		}
		byWorkload[p.WorkloadSize][p.Strategy] = p.Points
	}
	for w, m := range byWorkload {
		if m["tuple-DAG"] >= m["tuple-at-a-time"] {
			t.Errorf("workload %d: DAG %d >= baseline %d", w, m["tuple-DAG"], m["tuple-at-a-time"])
		}
	}
	if len(tab.Rows) != len(points) {
		t.Error("table rows mismatch")
	}
}

// TestAblationIndependent: both estimators produce finite KL; gibbs should
// not be drastically worse.
func TestAblationIndependent(t *testing.T) {
	opt := tinyOpt()
	opt.TrainSize = 3000
	opt.Support = 0.005
	points, tab, err := RunAblationIndependent(opt, []string{"BN13"})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d", len(points))
	}
	p := points[0]
	if p.KLGibbs > p.KLProd+0.1 {
		t.Errorf("gibbs (%v) much worse than product (%v)", p.KLGibbs, p.KLProd)
	}
	if len(tab.Rows) != 1 {
		t.Error("table rows mismatch")
	}
}
