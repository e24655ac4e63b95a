// Command mrslquery answers probabilistic queries over an incomplete CSV
// relation using a learned MRSL model. It is a thin client of the
// engine-native query subsystem (repro.Engine.Query): tuples the query's
// evidence refutes (and complete tuples) cost nothing, single-missing tuples are
// decided from their voted blocks in the engine's block cache without a
// chain, and only tuples whose bounds leave the answer open pay for full
// derivation — with early termination for exists and topk. Answers are
// bit-identical to deriving the whole database and evaluating naively,
// for every -workers value.
//
// Usage:
//
//	mrslquery -model model.json -in data.csv -where age=30,inc>=100K [-op count]
//	mrslquery -model model.json -in data.csv -where inc=100K -op exists -minprob 0.9
//	mrslquery -model model.json -in data.csv -where inc=100K -op topk -k 5
//	mrslquery -model model.json -in data.csv -groupby age [-where inc=100K]
//	mrslquery -model model.json -in data.csv -where inc=100K -minprob 0.8 -explain
//
// Multi-relation (intensional SPJ) queries take an SQL-ish statement and
// named CSV inputs instead of -in:
//
//	mrslquery -model model.json -rels people=people.csv,finance=finance.csv \
//	    -sql "from people join finance on pid=pid where inc=100K" -op exists
//	mrslquery -model model.json -rels people=people.csv,finance=finance.csv \
//	    -sql "select edu from people join finance on pid=pid where inc=100K" -op topk -k 3
//
// The statement's PK-FK join chain is folded with per-row lineage and a
// safety analyzer classifies the plan: safe (hierarchical) plans answer
// exactly through the extensional pipeline, and unsafe plans stay exact
// for linear operators while exists reports the dissociated existence
// mass with a sound [lo, hi] interval (printed alongside the answer). A
// "select" list switches to distinct-answer mode (count/topk). -explain
// additionally prints the join order, conditions, and safety verdict.
//
// -explain prints the chosen evaluation plan before the answer: the
// selectivity-ordered predicates, the per-tier tuple counts (refuted /
// certain / single-missing / bounded / derive), and whether dissociation
// bounds were in play. Multi-missing tuples whose sound [lo, hi] bound
// interval already decides the threshold (or cannot reach topk's rank
// k) are answered without any sampling; the trailing stats line reports
// how many tuples each tier resolved. -explain-analyze extends the plan
// with measured timings from the actual evaluation: planning cost, wall
// time, and per-tier resolution durations (prefetch / vote / derive /
// observed). Timing only observes — the answer is bit-identical with or
// without it.
//
// Conditions support =, !=, <, <=, >, >= over domain labels; ordered
// comparisons compare domain positions (meaningful for discretized
// numeric buckets). Supported operations: count (expected count, or the
// number of tuples reaching -minprob), exists (probability that at least
// one tuple matches), topk (most probable matching completions, ties
// bit-stable in input order), groupby (expected histogram, optionally
// filtered by -where).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model JSON from mrsllearn (required)")
		in        = flag.String("in", "", "input CSV relation (single-relation mode)")
		sql       = flag.String("sql", "", "SQL-ish statement: [select cols|*] from R [join S on a=b]... [where conds]; relation names resolve via -rels")
		rels      = flag.String("rels", "", "comma-separated name=path CSV inputs for -sql, e.g. people=people.csv,finance=finance.csv")
		keepKeys  = flag.Bool("keepkeys", false, "keep join key columns in the joined relation (they must then exist in the model schema)")
		where     = flag.String("where", "", "conjunctive conditions attr=value,attr>=value,...")
		groupBy   = flag.String("groupby", "", "attribute for a group-by expected histogram")
		op        = flag.String("op", "count", "operation: count, exists, topk, groupby")
		k         = flag.Int("k", 10, "result size for -op topk (must be positive)")
		minProb   = flag.Float64("minprob", 0, "probability threshold in [0,1]: count tuples reaching it, decide exists against it, drop topk rows below it")
		explain   = flag.Bool("explain", false, "print the chosen evaluation plan (predicate order, resolution tiers, join safety, bound usage)")
		analyze   = flag.Bool("explain-analyze", false, "like -explain, plus measured per-tier timings from the actual evaluation (planning, prefetch, vote, derive, wall)")
		samples   = flag.Int("samples", 1000, "Gibbs samples per distinct multi-missing tuple")
		burnin    = flag.Int("burnin", 100, "Gibbs burn-in sweeps")
		seed      = flag.Int64("seed", 1, "sampler seed")
		workers   = flag.Int("workers", 4, "inference pool size: votes, exact solves and Gibbs chains (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *modelPath == "" || (*in == "" && *sql == "") {
		fmt.Fprintln(os.Stderr, "mrslquery: -model and one of -in or -sql are required")
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		SQL: *sql, Rels: *rels, KeepKeys: *keepKeys,
		Where: *where, GroupBy: *groupBy, Op: *op, K: *k, MinProb: *minProb,
		Samples: *samples, BurnIn: *burnin, Seed: *seed, Workers: *workers,
		Explain: *explain, Analyze: *analyze,
	}
	if err := run(os.Stdout, *modelPath, *in, opts); err != nil {
		fmt.Fprintf(os.Stderr, "mrslquery: %v\n", err)
		os.Exit(1)
	}
}

// options carry the query flags into run.
type options struct {
	SQL      string
	Rels     string
	KeepKeys bool
	Where    string
	GroupBy  string
	Op       string
	K        int
	MinProb  float64
	Samples  int
	BurnIn   int
	Seed     int64
	Workers  int
	Explain  bool
	Analyze  bool
}

// parseRels reads the -rels name=path list into named relations, each
// parsed with inferred domains (CompileSPJ re-encodes them into model
// domains, so join inputs need not cover every model label).
func parseRels(spec string) (map[string]*repro.Relation, error) {
	inputs := make(map[string]*repro.Relation)
	if strings.TrimSpace(spec) == "" {
		return inputs, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, path, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("-rels entry %q (want name=path)", part)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rel, err := repro.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		inputs[name] = rel
	}
	return inputs, nil
}

func run(w io.Writer, modelPath, in string, o options) error {
	// Validate the decision flags up front with actionable messages:
	// out-of-range thresholds and non-positive topk sizes would otherwise
	// surface as library errors (or, for -k, silently unbounded results).
	if !(o.MinProb >= 0 && o.MinProb <= 1) { // also rejects NaN
		return fmt.Errorf("-minprob must be a probability in [0,1], got %v", o.MinProb)
	}
	if o.Op == "topk" && o.K <= 0 {
		return fmt.Errorf("-k must be a positive result size for -op topk, got %d", o.K)
	}
	if o.SQL != "" && in != "" {
		return fmt.Errorf("-sql and -in are mutually exclusive (the statement names its inputs via -rels)")
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		return err
	}
	defer mf.Close()
	model, err := repro.LoadModel(mf)
	if err != nil {
		return err
	}

	opCode, err := repro.ParseQueryOp(o.Op)
	if err != nil {
		return err
	}
	spec := repro.QuerySpec{
		Op:      opCode,
		Where:   o.Where,
		GroupBy: o.GroupBy,
		MinProb: o.MinProb,
		Analyze: o.Analyze,
	}
	if opCode == repro.QueryTopK {
		spec.K = o.K
	}

	eng, err := repro.NewEngine(model, repro.DeriveOptions{
		Method:  repro.BestAveraged(),
		Workers: o.Workers,
		Gibbs: repro.GibbsOptions{
			Samples: o.Samples, BurnIn: o.BurnIn, Seed: o.Seed, Method: repro.BestAveraged(),
		},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Multi-relation mode: parse the statement, bind its relation names to
	// the -rels inputs, and evaluate through the intensional SPJ pipeline.
	if o.SQL != "" {
		stmt, err := repro.ParseSPJ(o.SQL)
		if err != nil {
			return err
		}
		inputs, err := parseRels(o.Rels)
		if err != nil {
			return err
		}
		spjSpec, err := stmt.Bind(inputs, spec, o.KeepKeys)
		if err != nil {
			return err
		}
		spj, err := repro.CompileSPJ(model.Schema, spjSpec)
		if err != nil {
			return err
		}
		res, err := eng.Query(ctx, spj, spj.Query(), repro.QueryOptions{})
		if err != nil {
			return err
		}
		schema := model.Schema
		if spj.AnswerSchema() != nil {
			schema = spj.AnswerSchema()
		}
		render(w, opCode, o, res, schema, spj.SourceRelation().Len())
		return nil
	}

	df, err := os.Open(in)
	if err != nil {
		return err
	}
	defer df.Close()
	// Parse against the model's schema: query data rarely exercises
	// every domain value, and re-inferring domains would misalign value
	// codes with the model.
	rel, err := repro.ReadCSVInSchema(df, model.Schema)
	if err != nil {
		return err
	}
	q, err := repro.CompileQuery(model.Schema, spec)
	if err != nil {
		return err
	}
	res, err := eng.Query(ctx, rel, q, repro.QueryOptions{})
	if err != nil {
		return err
	}
	render(w, opCode, o, res, model.Schema, rel.Len())
	return nil
}

// render prints the plan (under -explain), the operator's answer, and
// the pruning stats. schema formats topk rows — the answer schema for
// projected queries, the model schema otherwise.
func render(w io.Writer, opCode repro.QueryOp, o options, res *repro.QueryResult, schema *repro.Schema, nTuples int) {
	if (o.Explain || o.Analyze) && res.Plan != nil {
		fmt.Fprint(w, res.Plan.String())
	}
	switch opCode {
	case repro.QueryCount:
		if o.MinProb > 0 {
			fmt.Fprintf(w, "tuples with P >= %g: %d of %d\n", o.MinProb, res.Count, nTuples)
		} else {
			fmt.Fprintf(w, "expected count: %.2f of %d tuples\n", res.Expected, nTuples)
		}
	case repro.QueryExists:
		answer := "no"
		if res.Exists {
			answer = "yes"
		}
		if res.EarlyStop && res.Exists {
			fmt.Fprintf(w, "exists: %s (P >= %.4f, decided early)\n", answer, res.Prob)
		} else {
			fmt.Fprintf(w, "exists: %s (P = %.4f)\n", answer, res.Prob)
		}
		if res.Dissociated && res.Bounds != nil {
			fmt.Fprintf(w, "  dissociated lineage: intensional mass within [%.4f, %.4f]\n",
				res.Bounds.Lo, res.Bounds.Hi)
		}
	case repro.QueryTopK:
		what := "matching completions"
		if res.Dissociated {
			what = "matching completions (dissociated masses)"
		}
		fmt.Fprintf(w, "top %d %s:\n", len(res.Rows), what)
		for _, row := range res.Rows {
			src := "certain"
			if !row.Certain {
				src = fmt.Sprintf("tuple %d", row.Index)
			}
			fmt.Fprintf(w, "  %.4f  %s  (%s)\n", row.Prob, row.Tuple.Format(schema), src)
		}
	case repro.QueryGroupBy:
		fmt.Fprintf(w, "expected histogram of %s:\n", o.GroupBy)
		for _, g := range res.Groups {
			fmt.Fprintf(w, "  %-10s %.2f (±%.2f)\n", g.Label, g.Expected, math.Sqrt(g.Variance))
		}
	}
	c := res.Counters
	fmt.Fprintf(w, "query stats: %d scanned, %d pruned, %d bounded, %d derived, %d bound-refuted\n",
		c.Scanned, c.Pruned, c.Bounded, c.Derived, c.BoundRefutes)
}
