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
// would silently re-code values relative to the model.
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

// InferWorkload estimates distributions for a whole workload of incomplete
// tuples with the tuple-DAG optimization (Algorithm 3), sharing samples
// between tuples related by subsumption. Results align with the distinct
// incomplete tuples in first-appearance order.
func InferWorkload(m *Model, workload []Tuple, opt GibbsOptions) ([]Tuple, []*Joint, error) {
	s, err := gibbs.New(m, opt.config())
	if err != nil {
		return nil, nil, err
	}
	res, err := s.TupleDAGRun(workload)
	if err != nil {
		return nil, nil, err
	}
	return res.Tuples, res.Dists, nil
}

// DeriveOptions configure Derive and DeriveStream.
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
	// Workers sizes the goroutine pool that infers multi-missing tuples,
	// one independent unit per distinct tuple: an exact solve when the
	// tuple's chain kernel is small (see Gibbs), a Gibbs chain otherwise;
	// <= 0 selects GOMAXPROCS. Exact solves use no randomness and chains
	// are seeded by tuple content, so the derived database is
	// bit-identical for every pool size.
	Workers int
	// VoteWorkers sizes the goroutine pool that shards single-missing
	// voting; <= 0 selects GOMAXPROCS. Distinct incomplete tuples are
	// voted once through a shared memoization cache, and the derived
	// database is bit-identical for every pool size.
	VoteWorkers int
	// CacheEntries bounds each engine cache (single-missing votes,
	// multi-missing joints, live datasets' conditioned blocks, and the
	// shared local-CPD memo) to that many entries with CLOCK eviction, so
	// long-lived engines serving unbounded pattern diversity run in fixed
	// memory. <= 0 leaves the vote, joint and conditioned-block caches
	// unbounded and keeps the CPD memo at its large default cap. Eviction
	// never changes the derived stream — cached values are deterministic
	// functions of the model and their key — it only costs recomputation.
	CacheEntries int
}

func (o DeriveOptions) config() derive.Config {
	return derive.Config{
		Method:          o.Method,
		Gibbs:           o.Gibbs.config(),
		MaxAlternatives: o.MaxAlternatives,
		VoteWorkers:     o.VoteWorkers,
		GibbsWorkers:    o.Workers,
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

// SchemaMismatchError is returned by Derive, DeriveStream, and the Engine
// methods when the relation's schema is not attribute-for-attribute
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
// See NewCollector, NewCSVSink, NewJSONLSink, and NewTextSink.
type Sink = derive.Sink

// EngineStats instruments an Engine's shared caches: distinct patterns
// computed vs tuples served for both the single-missing vote cache and
// the multi-missing joint cache, how many joints were solved exactly,
// Gibbs points drawn, and streams run. All
// counters are monotonically non-decreasing over the engine's lifetime.
type EngineStats = derive.Stats

// Pools sizes the worker pools of a single Engine request; zero fields
// inherit the engine's DeriveOptions. Pool sizes never change the emitted
// stream, so per-request sharding is always safe.
type Pools = derive.Pools

// NewCollector returns the in-memory Sink: it materializes the stream
// into a Database retrievable with its Database method.
func NewCollector(s *Schema) *derive.Collector { return derive.NewCollector(s) }

// NewCSVSink returns a Sink writing the stream to w as a complete CSV
// relation: certain tuples pass through, each block is materialized as
// its most probable completion (the most probable world — the paper's
// single-imputation repair). The output round-trips through ReadCSV.
func NewCSVSink(w io.Writer, s *Schema) *derive.CSVSink { return derive.NewCSVSink(w, s) }

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

// NewTextSink returns a Sink writing a human-readable line per item.
func NewTextSink(w io.Writer, s *Schema) *derive.TextSink { return derive.NewTextSink(w, s) }

// Engine is a long-lived derivation service over one model: construct it
// once with NewEngine and serve any number of DeriveStream/Derive calls,
// from any number of goroutines. Distinct evidence patterns are inferred
// once per engine lifetime — the single-missing vote cache and the
// multi-missing joint cache are shared across requests and persist
// between them — so overlapping and repeated workloads are served mostly
// from memory. Multi-missing tuples run independent content-seeded
// chains, so every request's output is bit-identical no matter which
// requests ran before or alongside it. The package-level
// Derive/DeriveStream helpers construct a throwaway engine per call.
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

// DeriveStream derives rel and streams the result to emit in input order
// without materializing it, using the engine's shared caches.
func (e *Engine) DeriveStream(rel *Relation, emit func(DeriveItem) error) error {
	return e.eng.Stream(rel, derive.EmitFunc(emit))
}

// DeriveStreamPools is DeriveStream with per-request pool sizes.
func (e *Engine) DeriveStreamPools(rel *Relation, pools Pools, emit func(DeriveItem) error) error {
	return e.eng.StreamPools(rel, pools, derive.EmitFunc(emit))
}

// DeriveStreamContext is DeriveStream with a cancellation context and
// per-request pool sizes. Canceling ctx stops the stream: dispatchers
// stop scheduling, the emitter stops waiting, and the call returns
// ctx.Err() once in-flight workers have drained. Work already claimed
// when the cancel lands is completed and cached rather than abandoned,
// so cancellation never poisons the shared caches.
func (e *Engine) DeriveStreamContext(ctx context.Context, rel *Relation, pools Pools, emit func(DeriveItem) error) error {
	return e.eng.StreamContext(ctx, rel, pools, derive.EmitFunc(emit))
}

// DeriveTo derives rel and pushes the stream into sink, closing it on
// success.
func (e *Engine) DeriveTo(rel *Relation, sink Sink) error {
	return e.eng.StreamTo(rel, sink)
}

// DeriveToPools is DeriveTo with per-request pool sizes.
func (e *Engine) DeriveToPools(rel *Relation, pools Pools, sink Sink) error {
	return e.eng.StreamPoolsTo(rel, pools, sink)
}

// DeriveToContext is DeriveTo with a cancellation context and per-request
// pool sizes (see DeriveStreamContext). On cancellation the sink is not
// closed, so a partial output is never flushed as complete.
func (e *Engine) DeriveToContext(ctx context.Context, rel *Relation, pools Pools, sink Sink) error {
	return e.eng.StreamToContext(ctx, rel, pools, sink)
}

// Derive derives rel into a materialized database.
func (e *Engine) Derive(rel *Relation) (*Database, error) {
	return e.eng.Derive(rel)
}

// Stats returns a snapshot of the engine's cache instrumentation.
func (e *Engine) Stats() EngineStats { return e.eng.Stats() }

// DeriveStream runs the paper's end-to-end pipeline on rel and streams
// the derived database to emit in input order, without materializing it:
// every complete tuple is passed through as a certain item, every
// incomplete tuple arrives as a block of mutually exclusive completions
// distributed according to the inferred Delta_t. Single-missing tuples
// use ensemble voting sharded across opt.VoteWorkers goroutines with a
// shared memoization cache; multi-missing tuples are solved exactly or
// by independent Gibbs chains, scheduled per block across opt.Workers
// goroutines. The emitted stream does not depend on pool sizes: it is
// bit-identical for every VoteWorkers and Workers value (exact solves use
// no randomness and chains are seeded by tuple content). The
// relation's schema must match the model's (else a SchemaMismatchError is
// returned up front). If emit returns an error the stream stops and
// DeriveStream returns that error. It runs on a throwaway engine;
// long-lived callers should construct one Engine and reuse its caches
// across calls.
func DeriveStream(m *Model, rel *Relation, opt DeriveOptions, emit func(DeriveItem) error) error {
	e, err := NewEngine(m, opt)
	if err != nil {
		return err
	}
	return e.DeriveStream(rel, emit)
}

// Derive runs the paper's end-to-end pipeline on rel and collects the
// stream into a materialized database: every complete tuple becomes a
// certain tuple of the output database; every incomplete tuple becomes a
// block of mutually exclusive completions, both in input order. It is a
// thin collector over DeriveStream; callers that can persist or serve
// blocks incrementally should use DeriveStream directly, and long-lived
// callers should construct an Engine and reuse its caches across calls.
func Derive(m *Model, rel *Relation, opt DeriveOptions) (*Database, error) {
	e, err := NewEngine(m, opt)
	if err != nil {
		return nil, err
	}
	return e.Derive(rel)
}
