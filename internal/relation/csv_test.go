package relation

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/rand"
	"strings"
	"testing"
)

const sampleCSV = `age,edu,inc
20,HS,50K
30,BS,?
?,HS,100K
20,MS,50K
`

func TestReadCSV(t *testing.T) {
	r, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d, want 3", r.Schema.NumAttrs())
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	// Domains are sorted distinct labels.
	age := r.Schema.Attrs[0]
	if age.Name != "age" || age.Card() != 2 {
		t.Errorf("age attr = %+v", age)
	}
	if age.Domain[0] != "20" || age.Domain[1] != "30" {
		t.Errorf("age domain = %v", age.Domain)
	}
	// Missing cells become Missing codes.
	if r.Tuples[1][2] != Missing {
		t.Errorf("row 2 inc should be missing, got %d", r.Tuples[1][2])
	}
	if r.Tuples[2][0] != Missing {
		t.Errorf("row 3 age should be missing, got %d", r.Tuples[2][0])
	}
	rc, ri := r.Split()
	if rc.Len() != 2 || ri.Len() != 2 {
		t.Errorf("split = %d complete, %d incomplete; want 2, 2", rc.Len(), ri.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n?,x\n?,y\n")); err == nil {
		t.Error("all-missing column should fail")
	}
	// Ragged rows are rejected by encoding/csv itself.
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV(strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("roundtrip length %d != %d", back.Len(), orig.Len())
	}
	for i := range orig.Tuples {
		if !orig.Tuples[i].Equal(back.Tuples[i]) {
			t.Errorf("tuple %d: %v != %v", i, orig.Tuples[i], back.Tuples[i])
		}
	}
}

func TestWriteCSVMatchmaking(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Matchmaking()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 18 { // header + 17 tuples
		t.Fatalf("lines = %d, want 18", len(lines))
	}
	if lines[0] != "age,edu,inc,nw" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "20,HS,?,?" {
		t.Errorf("t1 = %q, want 20,HS,?,?", lines[1])
	}
}

// TestScannerMatchesEncodingCSV reads random inputs record by record with
// the scanner and with encoding/csv: both must return the same fields and
// fail on the same record. The inputs mix quoted fields that span lines
// and lines longer than the bufio.Reader's buffer, which a short fuzz
// run rarely reaches.
func TestScannerMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pieces := []string{"a", "?", "50K", "é", " ", " ", "\t", ",", "\n", "\r\n", "\r", `"`, `""`}
	field := func(long bool) string {
		var b strings.Builder
		n := rng.Intn(4)
		if long {
			n = 5000
		}
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(4)])
		}
		if rng.Intn(3) > 0 {
			return b.String()
		}
		// A quoted field, with the pieces that need quoting, and now and
		// then a malformed one.
		var q strings.Builder
		q.WriteString(`"`)
		for i := 0; i < rng.Intn(6); i++ {
			p := pieces[rng.Intn(len(pieces))]
			if p == `"` && rng.Intn(20) > 0 {
				p = `""`
			}
			q.WriteString(p)
		}
		q.WriteString(b.String())
		if rng.Intn(30) > 0 {
			q.WriteString(`"`)
		}
		return pieces[4+rng.Intn(3)][:rng.Intn(2)] + q.String()
	}
	for iter := 0; iter < 3000; iter++ {
		var in strings.Builder
		width := 1 + rng.Intn(4)
		for r := 0; r < 1+rng.Intn(30); r++ {
			w := width
			if rng.Intn(40) == 0 {
				w++
			}
			for f := 0; f < w; f++ {
				if f > 0 {
					in.WriteString(",")
				}
				in.WriteString(field(rng.Intn(200) == 0))
			}
			in.WriteString([]string{"\n", "\r\n", "\n\n", "\n \n", "\r\n\r\n"}[rng.Intn(5)])
		}
		data := in.String()
		if rng.Intn(2) == 0 {
			data = strings.TrimRight(data, "\n")
		}
		sc := newScanner(strings.NewReader(data), 0)
		cr := csv.NewReader(strings.NewReader(data))
		cr.TrimLeadingSpace = true
		for rec := 1; ; rec++ {
			got, err := sc.next()
			want, wantErr := cr.Read()
			if (err == nil) != (wantErr == nil) || (err == io.EOF) != (wantErr == io.EOF) {
				t.Fatalf("input %d record %d: scanner error %v, encoding/csv error %v\ninput: %q", iter, rec, err, wantErr, data)
			}
			if err != nil {
				break
			}
			if len(got) != len(want) {
				t.Fatalf("input %d record %d: %d fields, encoding/csv read %d\ninput: %q", iter, rec, len(got), len(want), data)
			}
			for i := range got {
				if string(got[i]) != want[i] {
					t.Fatalf("input %d record %d field %d: %q, encoding/csv read %q\ninput: %q", iter, rec, i, got[i], want[i], data)
				}
			}
		}
	}
}
