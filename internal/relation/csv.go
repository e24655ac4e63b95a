package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"unicode"
	"unicode/utf8"
)

// MissingLabel is the textual rendering of a missing value in CSV files,
// matching the paper's "?" notation.
const MissingLabel = "?"

// ReadCSV parses a relation from CSV. The first record is the header naming
// the attributes. Domains are inferred from the data: each attribute's
// domain is the sorted set of distinct non-"?" labels seen in its column.
// Records are read by the package's CSV scanner, which accepts exactly the
// input an encoding/csv Reader with TrimLeadingSpace accepts (see
// ReadCSVInSchema).
func ReadCSV(r io.Reader) (*Relation, error) {
	sc := newScanner(r, 0)
	var records [][]string
	for {
		fields, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec := make([]string, len(fields))
		for i, f := range fields {
			rec[i] = string(f)
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: csv has no header")
	}
	header := records[0]
	rows := records[1:]

	// Infer per-column domains.
	domains := make([]map[string]bool, len(header))
	for i := range domains {
		domains[i] = make(map[string]bool)
	}
	for n, row := range rows {
		for i, cell := range row {
			if cell == "" {
				// Empty labels cannot round-trip through CSV (a row of
				// empty fields reads back as a blank line); require the
				// explicit missing marker instead.
				return nil, fmt.Errorf("relation: row %d column %q is empty (use %q for missing)",
					n+2, header[i], MissingLabel)
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

// ReadCSVInSchema parses a relation from CSV against a fixed schema
// instead of inferring domains from the data. The header must name the
// schema's attributes in schema order, and every non-"?" cell must be a
// label from its attribute's domain. This is the serving-side reader:
// inference-time data rarely exercises every domain value, so re-inferring
// domains would silently re-code values; pinning the schema keeps value
// codes aligned with the model the relation will be derived under.
//
// Records are read by one scanner that slices fields in place out of a
// bufio.Reader's buffer. It accepts exactly the input an encoding/csv
// Reader with TrimLeadingSpace accepts, with the same fields: RFC 4180
// quoting ("" escapes a quote; a quoted field may hold newlines), \r\n
// read as \n, blank lines skipped, leading white space (unicode.IsSpace)
// trimmed from every field, and every record as wide as the schema. Cells
// are looked up in per-column label tables without allocating, and the
// tuples are carved out of shared backing arrays.
func ReadCSVInSchema(r io.Reader, s *Schema) (*Relation, error) {
	if s == nil {
		return nil, fmt.Errorf("relation: nil schema")
	}
	n := s.NumAttrs()
	sc := newScanner(r, n)
	header, err := sc.next()
	if err == io.EOF {
		return nil, fmt.Errorf("relation: reading csv header: %w", err)
	}
	if err != nil {
		return nil, err
	}
	for i, name := range header {
		if string(name) != s.Attrs[i].Name {
			return nil, fmt.Errorf("relation: header column %d is %q, schema expects %q",
				i+1, name, s.Attrs[i].Name)
		}
	}
	codes := make([]map[string]int, n)
	for i, a := range s.Attrs {
		codes[i] = make(map[string]int, len(a.Domain))
		for v, label := range a.Domain {
			codes[i][label] = v
		}
	}
	rel := NewRelation(s)
	var free []int // the unused tail of the current backing array
	for {
		row, err := sc.next()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		if len(free) < n {
			// Each backing array holds as many rows as were read before
			// it, 64 at least and 512 at most, so the unused tail of the
			// last one is smaller than the rows before it and than 512
			// rows.
			rows := min(max(len(rel.Tuples), 64), 512)
			free = make([]int, rows*n)
		}
		t := Tuple(free[:n:n])
		free = free[n:]
		for i, cell := range row {
			if string(cell) == MissingLabel {
				t[i] = Missing
				continue
			}
			code, ok := codes[i][string(cell)]
			if !ok {
				return nil, fmt.Errorf("relation: row %d: %q is not in the domain of %q",
					sc.row, cell, s.Attrs[i].Name)
			}
			t[i] = code
		}
		// Codes come from the label tables, so t needs no range check.
		rel.Tuples = append(rel.Tuples, t)
	}
}

// scanner reads CSV records as an encoding/csv Reader with the default
// comma and TrimLeadingSpace set does, and rejects what it rejects. A
// field is a slice of the current line, valid until the next call of
// next: the line is in the bufio.Reader's buffer, or in long when it does
// not fit there. A quoted field with a "" escape or a line break is
// unescaped into own, and before a quoted field continues onto the next
// line, the record's fields still in the current line are copied into own
// too, since reading that line overwrites them.
type scanner struct {
	r      *bufio.Reader
	width  int // fields per record; the first record sets it when 0
	line   int // lines read
	row    int // records read
	fields [][]byte
	own    []byte // the copied field bytes of the current record
	long   []byte // a line longer than r's buffer
}

func newScanner(r io.Reader, width int) *scanner {
	return &scanner{r: bufio.NewReader(r), width: width}
}

// errorf reports a malformed record with its row and line.
func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("relation: reading csv row %d: line %d: %s", s.row, s.line, fmt.Sprintf(format, args...))
}

// readLine returns the next line, its \r\n read as \n and a \r before
// EOF dropped. At EOF it returns an empty line and io.EOF.
func (s *scanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	if err != nil {
		if err != io.EOF {
			err = fmt.Errorf("relation: reading csv: %w", err)
		}
		return nil, err
	}
	s.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, nil
}

// badQuote describes a quoted field that is never closed or has text
// after its closing quote.
const badQuote = `extraneous or missing " in quoted field`

// next returns the fields of the next record, skipping blank lines, and
// io.EOF after the last record.
func (s *scanner) next() ([][]byte, error) {
	line, err := s.readLine()
	for err == nil && len(line) == lengthNL(line) {
		line, err = s.readLine()
	}
	if err != nil {
		return nil, err
	}
	s.row++
	s.fields, s.own = s.fields[:0], s.own[:0]
	inPlace := 0 // s.fields[inPlace:] may be slices of line
	for {
		line = trimLeadingSpace(line)
		if len(line) == 0 || line[0] != '"' {
			i := 0
			for i < len(line) && line[i] != ',' && line[i] != '"' {
				i++
			}
			if i < len(line) && line[i] == '"' {
				return nil, s.errorf(`bare " in unquoted field`)
			}
			if i == len(line) {
				s.fields = append(s.fields, line[:i-lengthNL(line)])
				break
			}
			s.fields = append(s.fields, line[:i])
			line = line[i+1:]
			continue
		}
		var field []byte
		line = line[1:]
		if i := bytes.IndexByte(line, '"'); i >= 0 && (i+1 == len(line) || line[i+1] != '"') {
			field, line = line[:i], line[i+1:] // no escape, no line break
		} else if field, line, err = s.quoted(line, &inPlace); err != nil {
			return nil, err
		}
		s.fields = append(s.fields, field)
		if len(line) > 0 && line[0] == ',' {
			line = line[1:]
			continue
		}
		if len(line) != lengthNL(line) {
			return nil, s.errorf(badQuote)
		}
		break
	}
	if s.width == 0 {
		s.width = len(s.fields)
	}
	if len(s.fields) != s.width {
		return nil, s.errorf("%d fields, want %d", len(s.fields), s.width)
	}
	return s.fields, nil
}

// quoted reads the rest of a quoted field after its opening quote, for a
// field with a "" escape or one that continues past line, into s.own.
// It returns the field and the rest of the line after the closing quote.
// When the field continues onto the next line, the record's fields from
// s.fields[*inPlace:] are copied into s.own first.
func (s *scanner) quoted(line []byte, inPlace *int) (field, rest []byte, err error) {
	if !closes(line) {
		for k := *inPlace; k < len(s.fields); k++ {
			start := len(s.own)
			s.own = append(s.own, s.fields[k]...)
			s.fields[k] = s.own[start:]
		}
		*inPlace = len(s.fields) + 1
	}
	start := len(s.own)
	for {
		if i := bytes.IndexByte(line, '"'); i >= 0 {
			s.own = append(s.own, line[:i]...)
			line = line[i+1:]
			if len(line) > 0 && line[0] == '"' {
				s.own = append(s.own, '"')
				line = line[1:]
				continue
			}
			return s.own[start:], line, nil
		}
		if len(line) == 0 {
			return nil, nil, s.errorf(badQuote)
		}
		s.own = append(s.own, line...)
		if line, err = s.readLine(); err == io.EOF {
			return nil, nil, s.errorf(badQuote)
		} else if err != nil {
			return nil, nil, err
		}
	}
}

// closes reports whether the quoted field starting at line (after its
// opening quote) has its closing quote on this line.
func closes(line []byte) bool {
	for {
		i := bytes.IndexByte(line, '"')
		if i < 0 {
			return false
		}
		if i+1 == len(line) || line[i+1] != '"' {
			return true
		}
		line = line[i+2:]
	}
}

// lengthNL is 1 when b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// trimLeadingSpace drops the leading unicode.IsSpace runes of b, a
// newline included.
func trimLeadingSpace(b []byte) []byte {
	for len(b) > 0 {
		if c := b[0]; c < utf8.RuneSelf {
			if c != ' ' && (c < '\t' || c > '\r') {
				return b
			}
			b = b[1:]
			continue
		}
		r, size := utf8.DecodeRune(b)
		if !unicode.IsSpace(r) {
			return b
		}
		b = b[size:]
	}
	return b
}

// WriteCSV writes the relation as CSV with a header row; missing values are
// written as "?".
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.SortedAttrNames()); err != nil {
		return fmt.Errorf("relation: writing csv header: %w", err)
	}
	row := make([]string, r.Schema.NumAttrs())
	for _, t := range r.Tuples {
		for i, v := range t {
			if v == Missing {
				row[i] = MissingLabel
			} else {
				row[i] = r.Schema.Attrs[i].Domain[v]
			}
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
