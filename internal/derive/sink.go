package derive

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"repro/internal/faultinject"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// Sink receives a derivation stream. Emit is called once per item, in
// input order; Close is called once after the last item and must flush
// whatever the sink buffers. Sinks are used by one stream at a time; wrap
// a sink in your own locking to share it. An EmitFunc is the sink made of
// one function.
//
// A sink may also have an optional Flush() error method. The stream
// calls it after the first item, and again before it waits on or
// computes inline an item whose cache entry is not done, when items were
// emitted since the last flush. So a ready record never waits in a
// buffer while the engine works, and a stream served from the caches
// flushes only after its first item (and at Close, if the sink's Close
// flushes). An error from Flush stops the stream.
type Sink interface {
	Emit(Item) error
	Close() error
}

// Collector is the in-memory Sink: it materializes the stream into a
// pdb.Database (certain tuples and blocks, each in input order).
type Collector struct {
	db *pdb.Database
}

// NewCollector returns a collector over the schema.
func NewCollector(s *relation.Schema) *Collector {
	return &Collector{db: pdb.NewDatabase(s)}
}

// Emit adds the item to the database.
func (c *Collector) Emit(it Item) error {
	if it.Certain() {
		return c.db.AddCertain(it.Tuple)
	}
	return c.db.AddBlock(it.Block)
}

// Close is a no-op; the collector holds everything in memory.
func (c *Collector) Close() error { return nil }

// Database returns the materialized database.
func (c *Collector) Database() *pdb.Database { return c.db }

// jsonlSchema is the first line of a JSONL stream, describing the schema
// the positional value arrays index into. Field order is fixed by the
// struct definitions and attribute values are positional (schema order),
// so the rendering of a given stream is byte-stable.
type jsonlSchema struct {
	Kind  string      `json:"kind"` // "schema"
	Attrs []jsonlAttr `json:"attrs"`
}

type jsonlAttr struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain"`
}

// JSONLSink writes the stream as NDJSON: one schema record, then one
// record per item in input order. Certain tuples keep their values
// (kind "certain", "values"); blocks carry their base with "?" for
// missing and every alternative with its probability (kind "block",
// "base", "alts"), so the full derived database — not just a repair —
// crosses the wire. Each record is one Write of one complete line, so a
// stream cut short keeps every line already written.
//
// The schema record goes through encoding/json. Item records are built
// by appending bytes to one reused buffer: domain labels are quoted once
// per sink by encoding/json, and numbers follow its rules, so the output
// is byte-identical to encoding/json's rendering of the same records.
// The sink has a Flush method that forwards to w's Flush (Flush() error
// or Flush()), so the stream decides when buffered lines go out (see
// Sink); Close flushes too.
type JSONLSink struct {
	w      io.Writer
	schema *relation.Schema
	opened bool
	// labels[a][v] is domain value v of attribute a quoted as a JSON
	// string, missing is "?" quoted; both are filled when the stream opens.
	labels  [][][]byte
	missing []byte
	buf     []byte // the record being built, reused across Emits
}

// NewJSONLSink returns a JSONL sink over w.
func NewJSONLSink(w io.Writer, s *relation.Schema) *JSONLSink {
	return &JSONLSink{w: w, schema: s}
}

// open writes the schema record and quotes the labels, once per sink.
func (j *JSONLSink) open() error {
	if j.opened {
		return nil
	}
	j.opened = true
	rec := jsonlSchema{Kind: "schema", Attrs: make([]jsonlAttr, j.schema.NumAttrs())}
	j.labels = make([][][]byte, j.schema.NumAttrs())
	for i, a := range j.schema.Attrs {
		rec.Attrs[i] = jsonlAttr{Name: a.Name, Domain: a.Domain}
		j.labels[i] = make([][]byte, len(a.Domain))
		for v, label := range a.Domain {
			j.labels[i][v] = quoteJSON(label)
		}
	}
	j.missing = quoteJSON(relation.MissingLabel)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = j.w.Write(append(line, '\n'))
	return err
}

// quoteJSON renders s as encoding/json does: HTML-escaped, with invalid
// UTF-8 replaced by U+FFFD.
func quoteJSON(s string) []byte {
	q, _ := json.Marshal(s) // marshaling a string cannot fail
	return q
}

// Emit writes the item as one NDJSON line. A probability encoding/json
// cannot represent (NaN, ±Inf) fails the item with encoding/json's error
// and writes nothing.
func (j *JSONLSink) Emit(it Item) error {
	faultinject.Fire("sink.write")
	if err := j.open(); err != nil {
		return err
	}
	b := j.buf[:0]
	if it.Certain() {
		b = append(b, `{"kind":"certain","index":`...)
		b = strconv.AppendInt(b, int64(it.Index), 10)
		b = j.appendValues(b, `,"values":`, it.Tuple)
	} else {
		b = append(b, `{"kind":"block","index":`...)
		b = strconv.AppendInt(b, int64(it.Index), 10)
		b = j.appendValues(b, `,"base":`, it.Block.Base)
		for k, a := range it.Block.Alts {
			if k == 0 {
				b = append(b, `,"alts":[`...)
			} else {
				b = append(b, ',')
			}
			b = j.appendLabels(append(b, `{"values":`...), a.Tuple)
			var err error
			if b, err = appendJSONFloat(append(b, `,"p":`...), a.Prob); err != nil {
				j.buf = b
				return err
			}
			b = append(b, '}')
		}
		if len(it.Block.Alts) > 0 {
			b = append(b, ']')
		}
	}
	b = append(b, "}\n"...)
	j.buf = b
	_, err := j.w.Write(b)
	return err
}

// appendValues appends the field key and t's labels, omitting both for an
// empty tuple as encoding/json's omitempty does.
func (j *JSONLSink) appendValues(b []byte, key string, t relation.Tuple) []byte {
	if len(t) == 0 {
		return b
	}
	return j.appendLabels(append(b, key...), t)
}

// appendLabels appends t as a JSON array of domain labels ("?" for
// missing).
func (j *JSONLSink) appendLabels(b []byte, t relation.Tuple) []byte {
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		if v == relation.Missing {
			b = append(b, j.missing...)
		} else {
			b = append(b, j.labels[i][v]...)
		}
	}
	return append(b, ']')
}

// appendJSONFloat appends f as encoding/json renders a float64: the
// shortest decimal that round-trips, in 'f' form, or in 'e' form with a
// one-digit negative exponent unpadded (1e-7, not 1e-07) when
// |f| < 1e-6 or |f| >= 1e21. NaN and ±Inf return encoding/json's error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Flush forwards to w's Flush, when w has one.
func (j *JSONLSink) Flush() error {
	switch f := j.w.(type) {
	case interface{ Flush() error }:
		return f.Flush()
	case interface{ Flush() }:
		f.Flush()
	}
	return nil
}

// Close writes the schema record if nothing was emitted yet, then
// flushes.
func (j *JSONLSink) Close() error {
	if err := j.open(); err != nil {
		return err
	}
	return j.Flush()
}
