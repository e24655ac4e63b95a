package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
)

// gcStats sums the server's gctrace lines of the timed phase.
type gcStats struct {
	cycles int
	cpuMS  float64
}

// gcTrace reads the gctrace lines written to the server's stderr between
// byte offsets from and to. A line's CPU time is the sum of its "ms cpu"
// phases except idle-worker marking, which runs only on otherwise idle
// processors.
func gcTrace(path string, from, to int64) (gcStats, error) {
	var g gcStats
	f, err := os.Open(path)
	if err != nil {
		return g, err
	}
	defer f.Close()
	sc := bufio.NewScanner(io.NewSectionReader(f, from, to-from))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, "clock, ")
		if !ok {
			continue
		}
		cpu, _, ok := strings.Cut(rest, " ms cpu")
		if !ok {
			continue
		}
		g.cycles++
		for i, part := range strings.FieldsFunc(cpu, func(r rune) bool { return r == '+' || r == '/' }) {
			v, _ := strconv.ParseFloat(part, 64)
			if i != 3 { // sweep-term + assist/background/idle + mark-term; skip idle
				g.cpuMS += v
			}
		}
	}
	return g, sc.Err()
}

// perLayer derives the per-layer metrics of the traced pass, plus the
// share of the server's time the layers account for and the tracing
// overhead against the untraced pass of the same run.
func perLayer(w *workload, plain, t *pass, lt *layerTimes) []namedMetric {
	a, b := t.before, t.after
	sa, sb := a.stats, b.stats
	d := func(before, after int64) float64 { return float64(after - before) }
	httpAll := hist{}
	for _, path := range []string{"/derive", "/query", "/observe"} {
		h := histDelta(a, b, "mrsl_http_request_seconds", `path="`+path+`"`)
		httpAll.count += h.count
		httpAll.sumSeconds += h.sumSeconds
	}
	sink := histDelta(a, b, "mrsl_derive_sink_seconds", "")
	chain := histDelta(a, b, "mrsl_derive_chain_seconds", "")
	vote := histDelta(a, b, "mrsl_derive_vote_seconds", "")
	bound := histDelta(a, b, "mrsl_derive_bound_seconds", "")
	prefetch := histDelta(a, b, "mrsl_derive_prefetch_wait_seconds", "")
	plan := histDelta(a, b, "mrsl_query_plan_seconds", "")
	exec := histDelta(a, b, "mrsl_query_exec_seconds", "")
	observe := histDelta(a, b, "mrsl_http_request_seconds", `path="/observe"`)

	queries := d(sa.Queries, sb.Queries)
	observes := float64(len(w.seq) - countReads(w.seq))
	tiers := tierTimes(w, t)

	// In-process layer costs, scaled to the work the timed pass served:
	// every posted tuple is parsed once and encoded as one record. Both
	// are 0 on query_live, which posts no CSV and streams no derivation.
	var postedTuples float64
	for _, r := range w.seq {
		if r.kind == kindDerive {
			postedTuples += float64(w.bodyTuples[r.ref])
		}
	}
	parseUS := 1e6 * ratio(lt.parse.Seconds(), float64(lt.parsedTuples))
	encodeUS := 1e6 * ratio(lt.encode.Seconds(), float64(lt.encodeRecords))

	// Coverage: the disjoint leaf layers' busy time over the server's
	// runnable time, CPU plus run-queue wait. Stage histograms and the
	// in-process timings are wall durations, and on a host the client
	// shares a wall interval includes the server's run-queue waits, so CPU
	// alone would be the wrong denominator. Query execution counts without
	// the vote, chain and bound time it spends inside those layers.
	querySelf := max(0, exec.sumSeconds-vote.sumSeconds-chain.sumSeconds-bound.sumSeconds)
	attributedMS := 1000*(vote.sumSeconds+chain.sumSeconds+bound.sumSeconds+querySelf+observe.sumSeconds) +
		(parseUS+encodeUS)*postedTuples/1000 + t.gc.cpuMS
	runnableMS := t.cpuMS() + float64(t.p1.runqNS-t.p0.runqNS)/1e6

	m := func(name string, v float64, unit string) namedMetric { return namedMetric{name, metric{v, unit}, true} }
	hitRatio := func(served, computed float64) float64 { return ratio(served-computed, served) }
	return []namedMetric{
		m("mrslserve.write_syscalls_per_request", t.perRequest(float64(t.p1.syscw-t.p0.syscw)), "count"),
		m("mrslserve.bytes_out_per_request", t.perRequest(float64(t.p1.wchar-t.p0.wchar)), "B"),
		m("mrslserve.handler_self_ms", 1000*t.perRequest(max(0, httpAll.sumSeconds-sink.sumSeconds-exec.sumSeconds)), "ms"),
		m("mrslserve.runq_wait_ms_per_request", runqMSPerRequest(t), "ms"),
		m("mrslserve.gc_cpu_ms_per_request", t.perRequest(t.gc.cpuMS), "ms"),
		m("mrslserve.gc_cycles_per_request", t.perRequest(float64(t.gc.cycles)), "count"),
		m("relation.parse_us_per_tuple", parseUS, "us"),
		m("derive.stream_ms_mean", sink.meanMS(), "ms"),
		m("derive.encode_us_per_record", encodeUS, "us"),
		m("derive.vote_hit_ratio", hitRatio(d(sa.SingleTuples, sb.SingleTuples), d(sa.VotesComputed, sb.VotesComputed)), "ratio"),
		m("derive.gibbs_hit_ratio", hitRatio(d(sa.MultiTuples, sb.MultiTuples), d(sa.GibbsComputed, sb.GibbsComputed)), "ratio"),
		m("derive.evictions_per_request", t.perRequest(d(sa.Evictions, sb.Evictions)+d(sa.CPDEvictions, sb.CPDEvictions)), "count"),
		m("derive.prefetch_wait_ms_per_request", 1000*t.perRequest(prefetch.sumSeconds), "ms"),
		m("gibbs.chains_per_request", t.perRequest(d(sa.GibbsComputed, sb.GibbsComputed)), "count"),
		m("gibbs.points_per_request", t.perRequest(d(sa.PointsSampled, sb.PointsSampled)), "count"),
		m("gibbs.cpd_hit_ratio", ratio(d(sa.CPDHits, sb.CPDHits), d(sa.CPDHits, sb.CPDHits)+d(sa.CPDMisses, sb.CPDMisses)), "ratio"),
		m("gibbs.chain_ms_mean", chain.meanMS(), "ms"),
		m("vote.votes_per_request", t.perRequest(d(sa.VotesComputed, sb.VotesComputed)), "count"),
		m("vote.vote_us_mean", 1000*vote.meanMS(), "us"),
		m("core.match_us_per_tuple", 1e6*ratio(lt.match.Seconds(), float64(lt.matchedTuples)), "us"),
		m("query.plan_ms_mean", plan.meanMS(), "ms"),
		m("query.exec_ms_mean", exec.meanMS(), "ms"),
		m("query.bound_ms_mean", bound.meanMS(), "ms"),
		m("query.pruned_ratio", ratio(d(sa.QueryPruned, sb.QueryPruned), d(sa.QueryTuples, sb.QueryTuples)), "ratio"),
		m("query.derived_per_query", ratio(d(sa.QueryDerived, sb.QueryDerived), queries), "count"),
		m("query.bounded_per_query", ratio(d(sa.QueryBounded, sb.QueryBounded), queries), "count"),
		m("query.envelope_hit_ratio", ratio(d(sa.EnvelopeHits, sb.EnvelopeHits), d(sa.EnvelopeHits, sb.EnvelopeHits)+d(sa.EnvelopeMisses, sb.EnvelopeMisses)), "ratio"),
		m("query.replans_per_query", ratio(d(sa.Replans, sb.Replans), queries), "count"),
		m("query.tier_ms.prefetch", ratio(tiers["prefetch"], queries), "ms"),
		m("query.tier_ms.vote", ratio(tiers["vote"], queries), "ms"),
		m("query.tier_ms.derive", ratio(tiers["derive"], queries), "ms"),
		m("query.tier_ms.observed", ratio(tiers["observed"], queries), "ms"),
		m("dataset.observe_ms_mean", observe.meanMS(), "ms"),
		m("dataset.invalidated_per_observe", ratio(d(sa.InvalidatedEntries, sb.InvalidatedEntries), observes), "count"),
		m("coverage.attributed_share", ratio(attributedMS, runnableMS), "ratio"),
		m("coverage.unattributed_ms_per_request", t.perRequest(max(0, runnableMS-attributedMS)), "ms"),
		m("coverage.runnable_ms_per_request", t.perRequest(runnableMS), "ms"),
		m("tracing.overhead_p50", ratio(readP50(w, t), readP50(w, plain))-1, "ratio"),
		m("tracing.overhead_cpu", ratio(t.cpuMS(), plain.cpuMS())-1, "ratio"),
	}
}

func readP50(w *workload, p *pass) float64 {
	var lat []float64
	for i, r := range w.seq {
		if r.read() {
			lat = append(lat, ms(p.resps[i].last))
		}
	}
	return median(lat)
}

// tierTimes sums the explain=analyze per-tier durations (ms) over the
// traced pass's query summaries.
func tierTimes(w *workload, t *pass) map[string]float64 {
	out := map[string]float64{}
	for i, r := range w.seq {
		if !r.read() || r.kind == kindDerive {
			continue
		}
		sc := bufio.NewScanner(bytes.NewReader(t.resps[i].body))
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			var rec struct {
				Kind string `json:"kind"`
				Plan struct {
					Timing struct {
						Tiers []struct {
							Tier       string  `json:"tier"`
							DurationMS float64 `json:"duration_ms"`
						} `json:"tiers"`
					} `json:"timing"`
				} `json:"plan"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Kind != "summary" {
				continue
			}
			for _, tt := range rec.Plan.Timing.Tiers {
				out[tt.Tier] += tt.DurationMS
			}
		}
	}
	return out
}
