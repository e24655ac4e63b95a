package repro

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/relation"
)

func matchmakingModel(t *testing.T) (*Model, *Relation) {
	t.Helper()
	rel := relation.Matchmaking()
	m, err := Learn(rel, LearnOptions{SupportThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return m, rel
}

func TestLearnFacade(t *testing.T) {
	m, rel := matchmakingModel(t)
	if m.Schema.NumAttrs() != rel.Schema.NumAttrs() {
		t.Error("schema mismatch")
	}
	// Only the 8 complete tuples are learned from.
	if m.Stats.TrainingSize != 8 {
		t.Errorf("training size = %d, want 8", m.Stats.TrainingSize)
	}
	onlyIncomplete := NewRelation(rel.Schema)
	if err := onlyIncomplete.Append(Tuple{0, Missing, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Learn(onlyIncomplete, LearnOptions{SupportThreshold: 0.01}); err == nil {
		t.Error("relation without complete tuples should fail")
	}
}

func TestInferSingleFacade(t *testing.T) {
	m, _ := matchmakingModel(t)
	t1 := Tuple{Missing, 0, 0, 1}
	for _, method := range []Method{AllAveraged(), AllWeighted(), BestAveraged(), BestWeighted()} {
		d, err := InferSingle(m, t1, 0, method)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 3 || !d.IsNormalized(1e-9) || !d.IsPositive() {
			t.Errorf("method %v: invalid estimate %v", method, d)
		}
	}
}

func TestInferJointFacade(t *testing.T) {
	m, _ := matchmakingModel(t)
	t12 := Tuple{1, 2, Missing, Missing} // the paper's t12: 30, MS, ?, ?
	j, err := InferJoint(m, t12, GibbsOptions{Samples: 1500, BurnIn: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 4 { // inc (2) x nw (2)
		t.Fatalf("joint size = %d, want 4", j.Size())
	}
	if !j.P.IsNormalized(1e-9) || !j.P.IsPositive() {
		t.Errorf("invalid joint %v", j.P)
	}
}

func TestInferJointDefaults(t *testing.T) {
	m, _ := matchmakingModel(t)
	// Zero options: defaults kick in (2000 samples, best-averaged).
	j, err := InferJoint(m, Tuple{Missing, Missing, 0, 0}, GibbsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 9 {
		t.Errorf("joint size = %d, want 9", j.Size())
	}
}

// TestDeriveEndToEnd runs the paper's full pipeline on the Fig. 1 relation
// and checks the output database structure.
func TestDeriveEndToEnd(t *testing.T) {
	m, rel := matchmakingModel(t)
	db, err := Derive(m, rel, DeriveOptions{
		Gibbs: GibbsOptions{Samples: 400, BurnIn: 40, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Certain) != 8 {
		t.Errorf("certain tuples = %d, want 8", len(db.Certain))
	}
	if len(db.Blocks) != 9 {
		t.Errorf("blocks = %d, want 9", len(db.Blocks))
	}
	for _, b := range db.Blocks {
		if math.Abs(b.ProbSum()-1) > 1e-6 {
			t.Errorf("block for %v sums to %v", b.Base, b.ProbSum())
		}
		missing := b.Base.MissingAttrs()
		for _, alt := range b.Alts {
			if !alt.Tuple.IsComplete() {
				t.Errorf("incomplete alternative %v", alt.Tuple)
			}
			for a, v := range b.Base {
				if v != Missing && alt.Tuple[a] != v {
					t.Errorf("alternative %v changed known value of %v", alt.Tuple, b.Base)
				}
			}
		}
		_ = missing
	}
}

func TestDeriveMaxAlternatives(t *testing.T) {
	m, rel := matchmakingModel(t)
	db, err := Derive(m, rel, DeriveOptions{
		Gibbs:           GibbsOptions{Samples: 300, BurnIn: 30, Seed: 9},
		MaxAlternatives: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range db.Blocks {
		if len(b.Alts) > 2 {
			t.Errorf("block for %v has %d alternatives", b.Base, len(b.Alts))
		}
		if math.Abs(b.ProbSum()-1) > 1e-6 {
			t.Errorf("capped block not renormalized: %v", b.ProbSum())
		}
	}
}

func TestModelSaveLoadFacade(t *testing.T) {
	m, _ := matchmakingModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != m.Size() {
		t.Errorf("size %d != %d", back.Size(), m.Size())
	}
}

func TestCSVFacade(t *testing.T) {
	rel, err := ReadCSV(strings.NewReader("a,b\nx,1\ny,?\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rel); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "y,?") {
		t.Errorf("roundtrip lost missing marker:\n%s", buf.String())
	}
}

func TestNewSchemaFacade(t *testing.T) {
	s, err := NewSchema([]Attribute{{Name: "x", Domain: []string{"a", "b"}}})
	if err != nil || s.NumAttrs() != 1 {
		t.Errorf("NewSchema: %v, %v", s, err)
	}
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema should fail")
	}
}

// TestDeriveParallelWorkers: Workers only sizes the chain pool, so every
// value, 0 (GOMAXPROCS) and 1 included, derives identical blocks.
func TestDeriveParallelWorkers(t *testing.T) {
	m, rel := matchmakingModel(t)
	var ref *Database
	for _, workers := range []int{0, 1, 2, 4} {
		db, err := Derive(m, rel, DeriveOptions{
			Gibbs:   GibbsOptions{Samples: 300, BurnIn: 30, Seed: 11},
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(db.Certain) != 8 || len(db.Blocks) != 9 {
			t.Fatalf("workers=%d: %d certain, %d blocks", workers, len(db.Certain), len(db.Blocks))
		}
		for _, b := range db.Blocks {
			if math.Abs(b.ProbSum()-1) > 1e-6 {
				t.Errorf("workers=%d: block for %v sums to %v", workers, b.Base, b.ProbSum())
			}
		}
		if ref == nil {
			ref = db
			continue
		}
		requireSameDatabase(t, ref, db, fmt.Sprintf("workers=%d", workers))
	}
}
