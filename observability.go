package repro

import (
	"context"
	"io"

	"repro/internal/obs"
)

// This file exposes the observability layer (internal/obs) through the
// root package: the process-wide metric registry behind GET /metrics,
// per-request trace span recorders, and build identity. The instruments
// themselves live next to the code they measure — the derivation engine,
// the Gibbs samplers, and the query executor register their histograms
// on the default registry at init — so importing repro is enough for
// WriteMetrics to expose the whole stack.

// Trace records named spans for one request. A nil *Trace is a valid
// no-op recorder — code paths observe unconditionally and pay only a
// nil check when tracing is off — so tracing can be threaded through
// contexts without branching. Attaching a Trace to an evaluation
// context (WithTrace) also turns on the query executor's per-tier
// timing; it never changes answers.
type Trace = obs.Trace

// TraceSpan is one recorded span: a name and its duration, the
// {"kind":"trace"} wire schema served by mrslserve's trace=1.
type TraceSpan = obs.Span

// NewTrace returns an empty span recorder.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace attaches a span recorder to ctx; engine and executor stages
// observe into it. A nil trace returns ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context { return obs.WithTrace(ctx, tr) }

// TraceFrom returns the context's span recorder, or nil (a valid no-op
// recorder) when none is attached.
func TraceFrom(ctx context.Context) *Trace { return obs.TraceFrom(ctx) }

// WriteMetrics writes every registered metric — engine stage histograms,
// query plan/exec histograms, and whatever the caller registered — in
// Prometheus text exposition format.
func WriteMetrics(w io.Writer) { obs.Default.WritePrometheus(w) }

// WriteEngineStatsMetrics renders an EngineStats snapshot as Prometheus
// gauges, one per exported counter, named prefix + snake_case(field)
// (e.g. "mrsl_engine_" + CPDHits -> mrsl_engine_cpd_hits).
func WriteEngineStatsMetrics(w io.Writer, prefix string, st EngineStats) {
	obs.WriteStructGauges(w, prefix, st)
}

// EngineStatsMetricNames lists the metric names WriteEngineStatsMetrics
// would emit for the given prefix, in field order — the single source of
// truth scripts/metrics-lint.sh checks documentation against.
func EngineStatsMetricNames(prefix string) []string {
	return obs.StructMetricNames(prefix, EngineStats{})
}
