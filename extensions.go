package repro

import (
	"repro/internal/gibbs"
	"repro/internal/relation"
)

// This file exposes the reproduction's extension surfaces through the root
// package: Gibbs convergence diagnostics, PK-FK joins, and
// continuous-attribute discretization (both from the paper's
// preliminaries). Lazy, query-targeted inference (the paper's
// future-work Section VIII) is Engine.Query, in query.go.

// Extension types re-exported from the internal packages.
type (
	// GibbsDiagnostics reports chain-convergence evidence (split R-hat,
	// effective sample size).
	GibbsDiagnostics = gibbs.Diagnostics
	// JoinSpec configures a primary-foreign key join.
	JoinSpec = relation.JoinSpec
	// BucketStrategy selects equal-width or equal-frequency bucketing.
	BucketStrategy = relation.BucketStrategy
	// RawTable is string-typed tabular input prior to discretization.
	RawTable = relation.RawTable
)

// Bucketing strategies for DiscretizeTable.
const (
	EqualWidth     = relation.EqualWidth
	EqualFrequency = relation.EqualFrequency
)

// Diagnose runs several independent Gibbs chains for tuple t and reports
// split R-hat and effective sample size, the "standard techniques" the
// paper defers burn-in estimation to.
func Diagnose(m *Model, t Tuple, opt GibbsOptions, chains, samplesPerChain int) (*GibbsDiagnostics, error) {
	s, err := gibbs.New(m, opt.config())
	if err != nil {
		return nil, err
	}
	return s.Diagnose(t, chains, samplesPerChain)
}

// AutoTuneGibbs doubles the per-chain sample budget until the chains for t
// converge (split R-hat below threshold), returning the recommended
// burn-in and per-tuple sample count.
func AutoTuneGibbs(m *Model, t Tuple, opt GibbsOptions, threshold float64, minSamples, maxSamples int) (burnIn, samples int, diag *GibbsDiagnostics, err error) {
	s, err := gibbs.New(m, opt.config())
	if err != nil {
		return 0, 0, nil, err
	}
	return s.AutoTune(t, threshold, minSamples, maxSamples)
}

// Join computes the primary-foreign key join of two relations so that
// cross-relation correlations become learnable, as the paper sketches in
// Section I-B. Dangling or missing foreign keys yield missing right-side
// values — inference targets like any other missing data.
func Join(left, right *Relation, spec JoinSpec) (*Relation, error) {
	return relation.Join(left, right, spec)
}

// DiscretizeTable converts a raw string table into a relation, bucketing
// numeric columns into the given number of sub-ranges (Section II's
// treatment of continuous attributes).
func DiscretizeTable(raw RawTable, buckets int, strategy BucketStrategy) (*Relation, error) {
	rel, _, err := relation.DiscretizeTable(raw, buckets, strategy)
	return rel, err
}
