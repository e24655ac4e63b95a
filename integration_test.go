package repro

// Integration tests: the full pipeline — generate, learn, infer, derive,
// query — validated against the generating network's exact probabilities.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bn"
	"repro/internal/dist"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// pipelineFixture samples an incomplete relation from a catalog network.
func pipelineFixture(t *testing.T, id string, trainN, dirtyN int, seed int64) (*bn.Instance, *Relation, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := bn.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, trainN)
	model, err := Learn(train, LearnOptions{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelation(train.Schema)
	nAttrs := top.NumAttrs()
	for i := 0; i < dirtyN; i++ {
		tu := inst.Sample(rng)
		if rng.Float64() < 0.4 {
			k := 1 + rng.Intn(2)
			for _, a := range rng.Perm(nAttrs)[:k] {
				tu[a] = relation.Missing
			}
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return inst, rel, model
}

// TestPipelineExpectedCountsTrackGroundTruth: expected counts on the
// derived database match Monte-Carlo ground truth within a few percent.
func TestPipelineExpectedCountsTrackGroundTruth(t *testing.T) {
	inst, rel, model := pipelineFixture(t, "BN9", 15000, 600, 101)
	db, err := Derive(model, rel, DeriveOptions{
		Method: BestAveraged(),
		Gibbs:  GibbsOptions{Samples: 800, BurnIn: 80, Seed: 7, Method: BestAveraged()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: decided cells are exact; open cells use the network's
	// conditional. Compare expected counts for every (attr=0) predicate.
	for attr := 0; attr < 3; attr++ {
		pred := pdb.Eq(attr, 0)
		got := db.ExpectedCount(pred)
		var want float64
		for _, tu := range rel.Tuples {
			switch tu[attr] {
			case 0:
				want++
			case relation.Missing:
				cond, err := inst.ConditionalSingle(tu, attr)
				if err != nil {
					t.Fatal(err)
				}
				want += cond[0]
			}
		}
		if math.Abs(got-want) > float64(rel.Len())*0.03 {
			t.Errorf("attr %d: expected count %v, ground truth %v", attr, got, want)
		}
	}
}

// TestPipelineBlockDistributionsAreCalibrated: across many derived blocks,
// the average probability assigned to the true (hidden) completion should
// exceed the uniform floor by a large margin.
func TestPipelineBlockDistributionsAreCalibrated(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, 15000)
	model, err := Learn(train, LearnOptions{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}

	var probTrue, probUniform float64
	var n int
	for i := 0; i < 150; i++ {
		truth := inst.Sample(rng)
		broken := truth.Clone()
		k := 1 + rng.Intn(2)
		for _, a := range rng.Perm(4)[:k] {
			broken[a] = relation.Missing
		}
		j, err := InferJoint(model, broken, GibbsOptions{
			Samples: 600, BurnIn: 60, Seed: int64(i), Method: BestAveraged(),
		})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int, len(j.Attrs))
		for pos, a := range j.Attrs {
			vals[pos] = truth[a]
		}
		probTrue += j.P[j.Index(vals)]
		probUniform += 1 / float64(j.Size())
		n++
	}
	probTrue /= float64(n)
	probUniform /= float64(n)
	if probTrue < probUniform*1.5 {
		t.Errorf("avg P(truth) = %v, uniform floor %v — model uninformative", probTrue, probUniform)
	}
}

// TestPipelineSaveLoadInferIdentical: persisting and reloading a model
// changes nothing about its inferences.
func TestPipelineSaveLoadInferIdentical(t *testing.T) {
	_, rel, model := pipelineFixture(t, "BN8", 5000, 50, 104)
	buf := new(bytes.Buffer)
	if err := model.Save(buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range rel.Tuples {
		if tu.NumMissing() != 1 {
			continue
		}
		attr := tu.MissingAttrs()[0]
		a, err := InferSingle(model, tu, attr, BestAveraged())
		if err != nil {
			t.Fatal(err)
		}
		b, err := InferSingle(back, tu, attr, BestAveraged())
		if err != nil {
			t.Fatal(err)
		}
		l1, err := dist.L1(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if l1 > 1e-12 {
			t.Fatalf("inference changed after save/load: L1 = %v", l1)
		}
	}
}

// TestPipelineLazyAgreesWithEagerAtScale: the lazy query path and eager
// derivation agree exactly on a larger, noisier relation.
func TestPipelineLazyAgreesWithEagerAtScale(t *testing.T) {
	_, rel, model := pipelineFixture(t, "BN9", 10000, 400, 105)
	opt := DeriveOptions{
		Method:  BestAveraged(),
		Workers: 2,
		Gibbs:   GibbsOptions{Samples: 800, BurnIn: 80, Seed: 9, Method: BestAveraged()},
	}
	queryMatchesDerivation(t, model, rel, opt, []QueryPred{
		{Attr: 0, Cmp: QueryEq, Value: 0}, {Attr: 5, Cmp: QueryEq, Value: 1},
	})
}
