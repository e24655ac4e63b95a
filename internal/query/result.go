package query

import (
	"repro/internal/derive"
	"repro/internal/relation"
)

// Row is one TopK result: a satisfying completion, its probability, and
// its provenance. Rows of equal probability keep input order (and, within
// one source tuple, the block's alternative order), so TopK output is
// bit-stable for every worker count.
type Row struct {
	// Index is the source tuple's position in the input relation.
	Index int
	// Tuple is the satisfying completion.
	Tuple relation.Tuple
	// Prob is the completion's probability (1 for certain tuples).
	Prob float64
	// Certain reports a complete input tuple (no inference involved).
	Certain bool
}

// Group is one bucket of a GroupBy histogram: the expected number of
// satisfying tuples taking the value, with the variance of that count
// (blocks contribute independent Bernoulli mass, certain tuples are
// constant).
type Group struct {
	Value    int
	Label    string
	Expected float64
	Variance float64
	// Lo and Hi bound the group's true expected count when the evaluation
	// degraded under a deadline budget (Result.Degraded): unresolved
	// tuples contribute their dissociation-interval sides instead of exact
	// mass. Zero (and omitted from JSON) for exact evaluations.
	Lo float64 `json:"Lo,omitempty"`
	Hi float64 `json:"Hi,omitempty"`
}

// Counters partition the tuples one evaluation scanned by how much
// inference each cost. Scanned = Pruned + Bounded + Derived.
type Counters struct {
	// Scanned is the number of input tuples considered.
	Scanned int64
	// Pruned tuples cost no inference at all: complete tuples, tuples
	// refuted by evidence or structure, and tuples skipped once early
	// termination made their contribution irrelevant.
	Pruned int64
	// Bounded tuples were decided without a Gibbs chain or an exact
	// solve: single-missing tuples answered from their voted block in the
	// engine's block cache, and multi-missing tuples decided by their
	// dissociation bound interval.
	Bounded int64
	// Derived tuples were sent to full block derivation.
	Derived int64
	// BoundRefutes counts the Bounded tuples excluded by their interval's
	// upper side: Hi below the probability threshold, or below the
	// established TopK rank-k probability.
	BoundRefutes int64
	// BoundWidth accumulates the final bound-interval width per resolved
	// tuple: 0 for evidence- or CPD-decided tuples, the dissociation
	// interval's width for multi-missing tuples that received one
	// (whether it decided them or they were derived anyway), and 1 only
	// for derived tuples whose bounds stayed vacuous.
	BoundWidth float64
}

// Result is the answer of one evaluation. The populated fields depend on
// the operator; Counters and Plan are always set.
type Result struct {
	// Op echoes the evaluated operator.
	Op Op

	// Expected is the expected satisfying-tuple count (Count, no
	// threshold).
	Expected float64
	// Count is the number of tuples whose satisfaction probability
	// reached the threshold (Count with MinProb > 0).
	Count int64

	// Prob is the existence probability (Exists). When EarlyStop is set
	// it is the accumulated lower bound at the moment the threshold was
	// crossed — sound, but not the full product.
	Prob float64
	// Exists is the Exists decision: Prob > 0, or Prob >= MinProb when a
	// threshold was given.
	Exists bool
	// EarlyStop reports that evaluation ended before the full scan
	// because the answer could no longer change.
	EarlyStop bool

	// Rows are the TopK results, most probable first.
	Rows []Row

	// Groups is the GroupBy histogram, one entry per domain value.
	Groups []Group

	// Counters report the pruning achieved.
	Counters Counters

	// Plan summarizes the compiled plan the evaluation executed: the
	// selectivity-ordered predicates and the per-tier tuple counts.
	Plan *PlanInfo

	// Dissociated reports that the answer was computed over a dissociated
	// lineage: the SPJ plan was unsafe (joined rows share uncertain base
	// tuples) and the operator is sensitive to that correlation, so the
	// reported value treats the shared tuples as independent copies — an
	// upper bound on the intensional existence probability (Gatterbauer &
	// Suciu). Linear operators (expected counts, per-row topk masses,
	// groupby histograms) are exact even over unsafe plans and never set
	// it.
	Dissociated bool
	// Bounds is the sound [lo, hi] interval around the dissociated
	// existence mass for unsafe exists plans: lo is the best single-row
	// lower bound, hi folds every row's interval upper side. When the
	// interval alone decided the threshold (EarlyStop with no derivation),
	// Prob is the deciding side. Nil for safe plans and non-exists
	// operators. Degraded evaluations reuse it: it then brackets the
	// operator's scalar answer (expected count, threshold count, or
	// existence probability) around the unresolved tuples' intervals.
	Bounds *derive.Interval

	// Degraded reports that the evaluation ran out of deadline budget and
	// answered the remaining expensive tuples from their sound
	// dissociation intervals instead of deriving them. The point answer
	// fields then hold the conservative (lower-bound) side and Bounds —
	// or, for GroupBy, the per-group Lo/Hi — bracket the exact answer.
	// Never set when the context carries no deadline: evaluations without
	// a budget stay bit-identical to the derive-everything oracle.
	Degraded bool `json:"Degraded,omitempty"`
	// DegradedTuples counts the tuples answered from bounds because the
	// budget ran out (a subset of Counters.Bounded).
	DegradedTuples int64 `json:"DegradedTuples,omitempty"`
}
