package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

const inferCSV = `age,inc
20,50K
20,50K
20,50K
30,100K
30,100K
30,100K
?,50K
30,?
?,?
`

func setup(t *testing.T) (modelPath, dataPath string) {
	t.Helper()
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "data.csv")
	if err := os.WriteFile(dataPath, []byte(inferCSV), 0o644); err != nil {
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

func TestParseMethod(t *testing.T) {
	for _, name := range []string{"all-averaged", "all-weighted", "best-averaged", "best-weighted"} {
		if _, err := parseMethod(name); err != nil {
			t.Errorf("parseMethod(%q): %v", name, err)
		}
	}
	if _, err := parseMethod("bogus"); err == nil {
		t.Error("bogus method should fail")
	}
}

func TestRunInferEndToEnd(t *testing.T) {
	model, data := setup(t)
	var out bytes.Buffer
	if err := run(&out, model, data, 300, 30, "best-averaged", 0, 1); err != nil {
		t.Fatal(err)
	}
	if out.String() != inferOut {
		t.Errorf("output:\n%s\nwant:\n%s", out.String(), inferOut)
	}
	// Top-K capping works too.
	out.Reset()
	if err := run(&out, model, data, 300, 30, "all-averaged", 2, 1); err != nil {
		t.Fatal(err)
	}
	if out.String() != inferOutTop2 {
		t.Errorf("top-2 output:\n%s\nwant:\n%s", out.String(), inferOutTop2)
	}
}

// inferOut and inferOutTop2 are the printed databases of inferCSV.
const inferOut = `# derived probabilistic database: 6 certain tuples, 3 blocks
# age,inc,prob
20,50K,1
20,50K,1
20,50K,1
30,100K,1
30,100K,1
30,100K,1
# block 1 for ⟨age=?, inc=50K⟩
20,50K,1.0000
30,50K,0.0000
# block 2 for ⟨age=30, inc=?⟩
30,100K,1.0000
30,50K,0.0000
# block 3 for ⟨age=?, inc=?⟩
20,50K,0.5000
30,100K,0.5000
20,100K,0.0000
30,50K,0.0000
`

const inferOutTop2 = `# derived probabilistic database: 6 certain tuples, 3 blocks
# age,inc,prob
20,50K,1
20,50K,1
20,50K,1
30,100K,1
30,100K,1
30,100K,1
# block 1 for ⟨age=?, inc=50K⟩
20,50K,0.7500
30,50K,0.2500
# block 2 for ⟨age=30, inc=?⟩
30,100K,0.7500
30,50K,0.2500
# block 3 for ⟨age=?, inc=?⟩
20,50K,0.5000
30,100K,0.5000
`

// failingWriter fails every write, as a full disk does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestRunInferWriteError: a write error fails the run instead of being
// dropped with the output.
func TestRunInferWriteError(t *testing.T) {
	model, data := setup(t)
	if err := run(failingWriter{}, model, data, 300, 30, "best-averaged", 0, 1); err == nil {
		t.Error("a failing writer should fail the run")
	}
}

func TestRunInferErrors(t *testing.T) {
	model, data := setup(t)
	if err := run(io.Discard, model, data, 100, 10, "bogus", 0, 1); err == nil {
		t.Error("bad method should fail")
	}
	if err := run(io.Discard, filepath.Join(t.TempDir(), "no.json"), data, 100, 10, "best-averaged", 0, 1); err == nil {
		t.Error("missing model should fail")
	}
	if err := run(io.Discard, model, filepath.Join(t.TempDir(), "no.csv"), 100, 10, "best-averaged", 0, 1); err == nil {
		t.Error("missing data should fail")
	}
	// Schema mismatch: a CSV with a different column count.
	other := filepath.Join(t.TempDir(), "other.csv")
	if err := os.WriteFile(other, []byte("x\n1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, model, other, 100, 10, "best-averaged", 0, 1); err == nil {
		t.Error("schema mismatch should fail")
	}
}
