package derive

import "repro/internal/obs"

// Latency histograms for the engine's compute stages, registered on the
// process-wide obs registry (exported by cmd/mrslserve's GET /metrics).
// Instrumentation is block/stage-grained, never per-tuple: each Observe
// wraps one distinct compute unit (a vote fill, a multi-missing joint,
// a bound enumeration, a whole stream), so the steady-state cache-hit
// serving path pays nothing beyond a non-blocking channel probe.
var (
	voteSeconds = obs.Default.Histogram("mrsl_derive_vote_seconds", "",
		"Single-missing vote resolution per distinct evidence pattern (cache misses only).")
	// chainSeconds times both multi-missing tiers, exact solves and
	// chains alike, so the served-path benchmark's coverage still counts
	// every multi-missing block.
	chainSeconds = obs.Default.Histogram("mrsl_derive_chain_seconds", "",
		"One multi-missing inference per distinct tuple, exact solve or Gibbs chain (cache misses only).")
	boundSeconds = obs.Default.Histogram("mrsl_derive_bound_seconds", "",
		"One BoundCPD envelope enumeration (cache misses only).")
	prefetchWaitSeconds = obs.Default.Histogram("mrsl_derive_prefetch_wait_seconds", "",
		"Time resolvers spent blocked on another goroutine's in-flight cache entry.")
	sinkStreamSeconds = obs.Default.Histogram("mrsl_derive_sink_seconds", "",
		"End-to-end duration of one derivation stream, the sink's Close included.")
	watchNotifySeconds = obs.Default.Histogram("mrsl_watch_notify_seconds", "",
		"One observation's watch-subscription fan-out (per observe, all subscribers).")
)
