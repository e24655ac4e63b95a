package relation

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func benchRelation(n int) *Relation {
	rng := rand.New(rand.NewSource(5))
	s := MustSchema([]Attribute{
		{Name: "a", Domain: []string{"0", "1", "2"}},
		{Name: "b", Domain: []string{"0", "1"}},
		{Name: "c", Domain: []string{"0", "1", "2", "3"}},
		{Name: "d", Domain: []string{"0", "1"}},
	})
	r := NewRelation(s)
	r.Tuples = make([]Tuple, n)
	for i := range r.Tuples {
		r.Tuples[i] = Tuple{rng.Intn(3), rng.Intn(2), rng.Intn(4), rng.Intn(2)}
	}
	return r
}

// BenchmarkSupport measures the linear-scan support computation.
func BenchmarkSupport(b *testing.B) {
	r := benchRelation(10000)
	probe := Tuple{1, Missing, 2, Missing}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Support(probe)
	}
}

// BenchmarkTupleKey measures assignment-key encoding (the map-key hot
// path of mining and matching).
func BenchmarkTupleKey(b *testing.B) {
	t := Tuple{1, Missing, 2, 0, Missing, 3, 1, 0}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = t.AppendKey(buf[:0])
	}
	_ = buf
}

// BenchmarkCSVRoundTrip measures CSV write + parse of a 10k relation.
func BenchmarkCSVRoundTrip(b *testing.B) {
	r := benchRelation(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, r); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsumes measures the subsumption check used throughout DAG
// construction.
func BenchmarkSubsumes(b *testing.B) {
	x := Tuple{1, Missing, 2, Missing}
	y := Tuple{1, 0, 2, 1}
	for i := 0; i < b.N; i++ {
		_ = x.Subsumes(y)
	}
}

// BenchmarkReadCSVInSchema parses a body shaped like the served
// derive_hot workload's: 1,000 rows over 10 attributes of cardinality 2
// to 6 labeled "v0", "v1", ..., about 55% complete, 40% with one "?" and
// 5% with three.
func BenchmarkReadCSVInSchema(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	attrs := make([]Attribute, 10)
	for i := range attrs {
		attrs[i].Name = fmt.Sprintf("X%d", i)
		for v := 0; v < 2+i%5; v++ {
			attrs[i].Domain = append(attrs[i].Domain, fmt.Sprintf("v%d", v))
		}
	}
	s := MustSchema(attrs)
	r := NewRelation(s)
	for n := 0; n < 1000; n++ {
		t := make(Tuple, len(attrs))
		for i, a := range attrs {
			t[i] = rng.Intn(a.Card())
		}
		hide := 0
		switch u := rng.Float64(); {
		case u >= 0.95:
			hide = 3
		case u >= 0.55:
			hide = 1
		}
		for _, i := range rng.Perm(len(attrs))[:hide] {
			t[i] = Missing
		}
		r.Tuples = append(r.Tuples, t)
	}
	var body bytes.Buffer
	if err := WriteCSV(&body, r); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSVInSchema(bytes.NewReader(body.Bytes()), s); err != nil {
			b.Fatal(err)
		}
	}
}
