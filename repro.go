package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

// Re-exported core types, so callers need only import the root package.
type (
	// Schema describes the attributes of a relation.
	Schema = relation.Schema
	// Attribute is one discrete column.
	Attribute = relation.Attribute
	// Tuple is a (possibly incomplete) row; Missing marks unknown values.
	Tuple = relation.Tuple
	// Relation is a set of tuples over a schema.
	Relation = relation.Relation
	// Model is a learned MRSL model.
	Model = core.Model
	// Dist is a single-attribute probability distribution.
	Dist = dist.Dist
	// Joint is a distribution over combinations of several attributes.
	Joint = dist.Joint
	// Database is a disjoint-independent probabilistic database.
	Database = pdb.Database
	// Block is the completion distribution of one incomplete tuple.
	Block = pdb.Block
	// Method is a voting method (voter choice x scheme).
	Method = vote.Method
)

// Missing is the value code of a missing ("?") attribute value.
const Missing = relation.Missing

// NewSchema builds a validated schema.
func NewSchema(attrs []Attribute) (*Schema, error) { return relation.NewSchema(attrs) }

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation { return relation.NewRelation(s) }

// ReadCSV parses a relation ("?" denotes missing values) and infers domains.
func ReadCSV(r io.Reader) (*Relation, error) { return relation.ReadCSV(r) }

// ReadCSVInSchema parses a relation against a fixed schema (normally a
// model's) instead of inferring domains: the header must name the
// schema's attributes in order and every non-"?" cell must be a domain
// label. Serving paths should prefer this over ReadCSV — inference-time
// data rarely exercises every domain value, and re-inferring domains
// would silently re-code values relative to the model. It reads records
// with one scanner that slices fields in place and accepts exactly the
// input encoding/csv accepts with TrimLeadingSpace set.
func ReadCSVInSchema(r io.Reader, s *Schema) (*Relation, error) {
	return relation.ReadCSVInSchema(r, s)
}

// WriteCSV writes a relation with a header row.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// Voting method constructors, named after the paper's Table II columns.

// AllAveraged votes with every matching meta-rule, plainly averaged.
func AllAveraged() Method { return Method{Choice: core.AllVoters, Scheme: vote.Averaged} }

// AllWeighted votes with every matching meta-rule, support-weighted.
func AllWeighted() Method { return Method{Choice: core.AllVoters, Scheme: vote.Weighted} }

// BestAveraged votes with the most specific matches, plainly averaged —
// the paper's most accurate method at scale.
func BestAveraged() Method { return Method{Choice: core.BestVoters, Scheme: vote.Averaged} }

// BestWeighted votes with the most specific matches, support-weighted.
func BestWeighted() Method { return Method{Choice: core.BestVoters, Scheme: vote.Weighted} }

// LearnOptions configure Learn.
type LearnOptions struct {
	// SupportThreshold is the paper's theta (frequent itemset cutoff).
	SupportThreshold float64
	// MaxItemsets caps Apriori rounds; <= 0 uses the paper's 1000.
	MaxItemsets int
	// MaxBodySize bounds meta-rule bodies; <= 0 means unbounded.
	MaxBodySize int
	// UseIncomplete also mines the complete portions of incomplete tuples
	// (the paper's Section III variant) instead of learning from complete
	// tuples only.
	UseIncomplete bool
}

// Learn builds an MRSL model from the complete portion of rel
// (Algorithm 1). By default incomplete tuples are ignored during learning,
// exactly as in the paper's main algorithm; with opt.UseIncomplete their
// known values contribute to mining as well.
func Learn(rel *Relation, opt LearnOptions) (*Model, error) {
	rc, _ := rel.Split()
	if rc.Len() == 0 {
		return nil, fmt.Errorf("repro: relation has no complete tuples to learn from")
	}
	cfg := core.Config{
		SupportThreshold: opt.SupportThreshold,
		MaxItemsets:      opt.MaxItemsets,
		MaxBodySize:      opt.MaxBodySize,
		IncludePartial:   opt.UseIncomplete,
	}
	if opt.UseIncomplete {
		return core.Learn(rel, cfg)
	}
	return core.Learn(rc, cfg)
}

// LoadModel reads a model saved with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// InferSingle estimates the distribution of the single missing attribute
// attr of t by ensemble voting (Algorithm 2).
func InferSingle(m *Model, t Tuple, attr int, method Method) (Dist, error) {
	return vote.Infer(m, t, attr, method)
}

// GibbsOptions configure multi-attribute inference.
type GibbsOptions struct {
	// Samples is the number of recorded points per tuple (N); <= 0 uses
	// the paper's well-converged setting of 2000.
	Samples int
	// BurnIn is the number of discarded warm-up sweeps (B); <= 0 uses 100.
	BurnIn int
	// Method is the voting method for local CPDs. The zero value is
	// AllAveraged (all voters, plain averaging); pass BestAveraged() etc.
	// to select another method.
	Method Method
	// Seed makes sampling deterministic.
	Seed int64
}

func (o GibbsOptions) config() gibbs.Config {
	samples := o.Samples
	if samples <= 0 {
		samples = 2000
	}
	return gibbs.Config{Samples: samples, BurnIn: o.BurnIn, Method: o.Method, Seed: o.Seed}
}

// InferJoint estimates the joint distribution over all missing attributes
// of t by ordered Gibbs sampling over the model's MRSLs (Section V).
func InferJoint(m *Model, t Tuple, opt GibbsOptions) (*Joint, error) {
	s, err := gibbs.New(m, opt.config())
	if err != nil {
		return nil, err
	}
	return s.InferTuple(t)
}

// DeriveOptions configure NewEngine and Derive.
type DeriveOptions struct {
	// Gibbs configures multi-attribute inference for tuples with more than
	// one missing value. Its sweep count B+N also sets the exact tier: a
	// tuple whose chain kernel needs at most (B+N)·k local CPDs is solved
	// exactly, as the kernel's stationary distribution, unless power
	// iteration has not converged within B+N sweeps.
	Gibbs GibbsOptions
	// Method is the voting method for single-missing tuples. The zero
	// value is AllAveraged; the paper's most accurate method at scale is
	// BestAveraged().
	Method Method
	// MaxAlternatives caps each block's alternatives (most probable kept,
	// renormalized); <= 0 keeps all combinations.
	MaxAlternatives int
	// Workers sizes the goroutine pool that infers the distinct
	// incomplete tuples of a request, one independent unit per distinct
	// tuple: an ensemble vote for a single-missing tuple, and for a
	// multi-missing one an exact solve when its chain kernel is small (see
	// Gibbs), a Gibbs chain otherwise; <= 0 selects GOMAXPROCS, and the
	// pool never exceeds it. Each distinct tuple is inferred once through
	// the engine's block cache; votes and exact solves use no randomness
	// and chains are seeded by tuple content, so the derived database is
	// bit-identical for every pool size.
	Workers int
	// CacheEntries bounds each engine cache (the block cache, single- and
	// multi-missing blocks together, and the shared local-CPD memo) to
	// that many entries with CLOCK eviction, so long-lived engines serving
	// unbounded pattern diversity run in fixed memory. <= 0 leaves the
	// block cache unbounded and keeps the CPD memo at its large default
	// cap. Eviction never changes the derived stream — cached values are
	// deterministic functions of the model and their key — it only costs
	// recomputation. Live datasets' conditioned posteriors are not cached:
	// each dataset owns one block per observed tuple.
	CacheEntries int
}

func (o DeriveOptions) config() derive.Config {
	return derive.Config{
		Method:          o.Method,
		Gibbs:           o.Gibbs.config(),
		MaxAlternatives: o.MaxAlternatives,
		Workers:         o.Workers,
		CacheEntries:    o.CacheEntries,
	}
}

// DeriveItem is one streamed element of a derived database: a certain
// tuple (Block == nil) or a block of completions, tagged with the source
// tuple's position in the input relation. Blocks are served from the
// engine's cache and shared between duplicate tuples and across
// requests; treat a received Block and its alternatives as immutable
// (copy before modifying).
type DeriveItem = derive.Item

// SchemaMismatchError is returned by Derive and by the Engine's Derive
// and Query when the source's schema is not attribute-for-attribute
// identical to the model's (same names, same domains, same order — the
// condition under which value codes mean the same thing in both). It is
// detected up front, before any inference runs; match it with errors.As.
type SchemaMismatchError = derive.SchemaMismatchError

// PanicError is the typed error a request receives when a panic inside
// the engine's worker pools (voting, Gibbs chains, prefetch, sinks) was
// recovered at the goroutine boundary: the request fails, the engine and
// its shared caches stay serviceable, and EngineStats.PanicsRecovered
// counts the event. Match it with errors.As.
type PanicError = derive.PanicError

// Sink receives a derivation stream: Emit once per item in input order,
// then Close to flush. A sink may also have an optional Flush() error
// method; the stream calls it after the first item, and before it waits
// on or computes inline an item that is not in the engine's caches yet,
// so a finished record never waits in a buffer while the engine works.
// NewJSONLSink returns the NDJSON sink; an EmitFunc is a sink made of one
// function.
type Sink = derive.Sink

// EmitFunc is a Sink made of one function: Emit calls it and Close does
// nothing. Returning an error stops the stream.
type EmitFunc = derive.EmitFunc

// Source is what Engine.Derive derives and Engine.Query evaluates: a
// *Relation, a *DatasetSnapshot (whose observed tuples carry their
// conditioned posterior blocks) or, for Query, a *CompiledSPJ.
type Source = derive.Source

// EngineStats instruments an Engine's shared caches: distinct patterns
// computed vs tuples served for the single-missing and the multi-missing
// blocks of the block cache, how many joints were solved exactly,
// Gibbs points drawn, and streams run. All
// counters are monotonically non-decreasing over the engine's lifetime.
type EngineStats = derive.Stats

// Pools sizes the worker pool of a single Engine request; a zero Workers
// inherits the engine's DeriveOptions. The pool size never changes the
// emitted stream, so per-request sharding is always safe.
type Pools = derive.Pools

// NewJSONLSink returns a Sink writing the stream to w as NDJSON: a schema
// record, then one record per item carrying either the certain tuple's
// values or every block alternative with its probability. Each item is
// written to w as one complete line in one Write, byte-identical to
// encoding/json's rendering. The sink's Flush forwards to w's Flush
// (Flush() error, or Flush() as on an http.ResponseWriter), so a buffered
// w is flushed when the stream would otherwise wait; this suits
// incremental serving over sockets and HTTP (cmd/mrslserve streams this
// format straight into its ResponseWriter).
func NewJSONLSink(w io.Writer, s *Schema) *derive.JSONLSink { return derive.NewJSONLSink(w, s) }

// Engine is a long-lived derivation service over one model: construct it
// once with NewEngine and serve any number of Derive and Query calls,
// from any number of goroutines. Distinct evidence patterns are inferred
// once per engine lifetime — the block cache, which holds single- and
// multi-missing blocks alike, is shared across requests and persists
// between them — so overlapping and repeated workloads are served mostly
// from memory. Votes and exact solves are deterministic and chains are
// seeded by tuple content, so every request's output is bit-identical no
// matter which requests ran before or alongside it. The package-level Derive
// constructs a throwaway engine per call.
type Engine struct {
	eng *derive.Engine
}

// NewEngine returns a serving engine over the model. opt fixes the voting
// method, the Gibbs configuration, and the default pool sizes — which
// individual requests may override via Pools.
func NewEngine(m *Model, opt DeriveOptions) (*Engine, error) {
	e, err := derive.New(m, opt.config())
	if err != nil {
		return nil, err
	}
	return &Engine{eng: e}, nil
}

// Derive derives the probabilistic database of src — a *Relation or a
// *DatasetSnapshot — and streams it into sink in input order, without
// materializing it, using the engine's shared caches: every complete
// tuple passes through as a certain item, every incomplete tuple arrives
// as a block of mutually exclusive completions distributed according to
// the inferred Delta_t, and a snapshot's observed tuples emit their
// conditioned posterior blocks (or pass through as certain items after a
// collapse). Each distinct incomplete tuple is one unit of work,
// scheduled per block across the request's pool of Workers:
// single-missing tuples use ensemble voting, and multi-missing tuples
// are solved exactly or by independent Gibbs chains. pools sizes the
// pool for this request; a zero Workers inherits the engine's
// DeriveOptions. The stream is bit-identical for every pool size (votes
// and exact solves use no randomness and chains are seeded by tuple
// content). src's schema must match the model's, else a
// SchemaMismatchError is returned before any inference runs.
//
// Derive closes sink after the last item. If the stream or the sink
// fails, Derive returns that error without closing it, so a partial
// output is never flushed as complete. Canceling ctx stops the stream
// the same way: dispatchers stop scheduling, the emitter stops waiting,
// and the call returns ctx.Err() once in-flight workers have drained.
// Work already claimed when the cancel lands is completed and cached
// rather than abandoned, so cancellation never poisons the shared
// caches.
func (e *Engine) Derive(ctx context.Context, src Source, pools Pools, sink Sink) error {
	return e.eng.Stream(ctx, src, pools, sink)
}

// DeriveTo is Derive of rel with the engine's default pools and no
// cancellation.
func (e *Engine) DeriveTo(rel *Relation, sink Sink) error {
	return e.Derive(context.Background(), rel, Pools{}, sink)
}

// Stats returns a snapshot of the engine's cache instrumentation.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// Derive runs the paper's end-to-end pipeline on rel and collects the
// stream into a materialized database: every complete tuple becomes a
// certain tuple of the output database; every incomplete tuple becomes a
// block of mutually exclusive completions, both in input order. It runs
// on a throwaway engine; callers that can persist or serve blocks
// incrementally, and long-lived callers that should reuse the caches
// across calls, construct an Engine and call its Derive.
func Derive(m *Model, rel *Relation, opt DeriveOptions) (*Database, error) {
	e, err := NewEngine(m, opt)
	if err != nil {
		return nil, err
	}
	c := derive.NewCollector(m.Schema)
	if err := e.Derive(context.Background(), rel, Pools{}, c); err != nil {
		return nil, err
	}
	return c.Database(), nil
}
