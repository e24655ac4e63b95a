package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"testing"
)

// csvSeeds are the inputs both CSV fuzz targets start from: the quoting,
// line-ending, blank-line and white-space cases where a hand-written
// scanner and encoding/csv could part ways.
var csvSeeds = []string{
	"age,inc\n20,50K\n30,100K\n?,50K\n30,?\n?,?\n",
	"a\nx\n",
	"a,b\n?,?\n",                      // all-missing column: must be rejected
	"a,b\n1\n",                        // ragged row
	"",                                // empty input
	"a,a\n1,2\n",                      // duplicate attribute names
	"x,y\n\"q,uo\",2\n?,2\n",          // quoted field with comma
	"h1,h2\r\nv1,v2\r\nv1,?\r\n",      // CRLF
	"a,b\n 1,2\n1 ,2\n",               // leading/trailing spaces
	"név,inc\nérték,50K\n",            // non-ASCII labels
	"a,b\n\"x\"\"y\",1\n\"\"\"\",2\n", // "" escapes
	"a,b\n\"x\ny\",1\n2,\"p\r\nq\"\n", // \n and \r\n inside quotes
	"a,b\nx\"y,1\n",                   // bare " in an unquoted field
	"a,b\n1,\"open",                   // unterminated quote at EOF
	"a,b\n\"x\"y,1\n",                 // text after a closing quote
	"a,b\n  \n1,2\n\n\r\n3,4\n",       // whitespace-only and blank lines
	"a,b\n\u00a01,2\n",                // a leading U+00A0
	"a,b\n1,2",                        // last line without \n
	"a,b\n\"?\",1\n?,\"2\"\n",         // a quoted "?"
	"x,y\n\"q,uo\",\" sp\"\n\"\"\"q\",ü\n?,\"2\"\n?x,50K", // FuzzReadCSVInSchema's labels
}

// FuzzReadCSV checks ReadCSV against oracleReadCSV, the encoding/csv
// reader it replaced: both accept the same inputs, with the same schema
// and tuples, and anything accepted is a well-formed relation that
// survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSV(bytes.NewReader(data))
		want, wantErr := oracleReadCSV(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadCSV error %v, encoding/csv error %v\ninput: %q", err, wantErr, data)
		}
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		sameRelation(t, rel, want, data)
		// Accepted input must produce a consistent relation: every tuple
		// within schema bounds (Append re-validates) ...
		check := NewRelation(rel.Schema)
		for _, tu := range rel.Tuples {
			if err := check.Append(tu); err != nil {
				t.Fatalf("accepted relation has invalid tuple %v: %v", tu, err)
			}
		}
		// ... and it must survive a write/read round trip.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV of accepted relation: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\ncsv:\n%s", err, buf.String())
		}
		if back.Len() != rel.Len() || back.Schema.NumAttrs() != rel.Schema.NumAttrs() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				rel.Len(), rel.Schema.NumAttrs(), back.Len(), back.Schema.NumAttrs())
		}
	})
}

// FuzzReadCSVInSchema checks ReadCSVInSchema against
// oracleReadCSVInSchema over a fixed schema whose labels need quoting: a
// comma, a quote, a leading space, and a non-ASCII letter.
func FuzzReadCSVInSchema(f *testing.F) {
	s := MustSchema([]Attribute{
		{Name: "x", Domain: []string{"q,uo", `"q`, "?x", "1"}},
		{Name: "y", Domain: []string{" sp", "ü", "2", "50K"}},
	})
	for _, seed := range csvSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSVInSchema(bytes.NewReader(data), s)
		want, wantErr := oracleReadCSVInSchema(bytes.NewReader(data), s)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadCSVInSchema error %v, encoding/csv error %v\ninput: %q", err, wantErr, data)
		}
		if err == nil {
			sameRelation(t, rel, want, data)
		}
	})
}

// sameRelation fails t unless got and want have equal schemas and the
// same tuples in the same order.
func sameRelation(t *testing.T, got, want *Relation, data []byte) {
	t.Helper()
	if d := got.Schema.Diff(want.Schema); d != "" {
		t.Fatalf("schema differs from encoding/csv's: %s\ninput: %q", d, data)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d tuples, encoding/csv read %d\ninput: %q", got.Len(), want.Len(), data)
	}
	for i := range got.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) || len(got.Tuples[i]) != len(want.Tuples[i]) {
			t.Fatalf("tuple %d is %v, encoding/csv read %v\ninput: %q", i, got.Tuples[i], want.Tuples[i], data)
		}
	}
}

// oracleReadCSV is ReadCSV as it was on encoding/csv, kept as the
// reference the scanner must agree with.
func oracleReadCSV(r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: csv has no header")
	}
	header := records[0]
	rows := records[1:]
	domains := make([]map[string]bool, len(header))
	for i := range domains {
		domains[i] = make(map[string]bool)
	}
	for n, row := range rows {
		if len(row) != len(header) {
			return nil, fmt.Errorf("relation: row %d has %d fields, want %d", n+2, len(row), len(header))
		}
		for i, cell := range row {
			if cell == "" {
				return nil, fmt.Errorf("relation: row %d column %q is empty", n+2, header[i])
			}
			if cell != MissingLabel {
				domains[i][cell] = true
			}
		}
	}
	attrs := make([]Attribute, len(header))
	for i, name := range header {
		var vals []string
		for v := range domains[i] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		if len(vals) == 0 {
			return nil, fmt.Errorf("relation: column %q has no known values", name)
		}
		attrs[i] = Attribute{Name: name, Domain: vals}
	}
	schema, err := NewSchema(attrs)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	for n, row := range rows {
		t := NewTuple(len(header))
		for i, cell := range row {
			if cell == MissingLabel {
				continue
			}
			code, err := schema.ValueCode(i, cell)
			if err != nil {
				return nil, fmt.Errorf("relation: row %d: %w", n+2, err)
			}
			t[i] = code
		}
		if err := rel.Append(t); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", n+2, err)
		}
	}
	return rel, nil
}

// oracleReadCSVInSchema is ReadCSVInSchema as it was on encoding/csv,
// kept as the reference the scanner must agree with.
func oracleReadCSVInSchema(r io.Reader, s *Schema) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = s.NumAttrs()
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv header: %w", err)
	}
	for i, name := range header {
		if name != s.Attrs[i].Name {
			return nil, fmt.Errorf("relation: header column %d is %q, schema expects %q",
				i+1, name, s.Attrs[i].Name)
		}
	}
	rel := NewRelation(s)
	for n := 2; ; n++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: reading csv row %d: %w", n, err)
		}
		t := NewTuple(s.NumAttrs())
		for i, cell := range row {
			if cell == MissingLabel {
				continue
			}
			code, err := s.ValueCode(i, cell)
			if err != nil {
				return nil, fmt.Errorf("relation: row %d: %w", n, err)
			}
			t[i] = code
		}
		if err := rel.Append(t); err != nil {
			return nil, fmt.Errorf("relation: row %d: %w", n, err)
		}
	}
	return rel, nil
}
