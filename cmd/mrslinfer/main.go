// Command mrslinfer applies a saved MRSL model to a CSV relation with
// missing values and prints the derived probabilistic database: one block
// of probability-annotated completions per incomplete tuple, in the style
// of the paper's Fig. 1 call-out.
//
// Usage:
//
//	mrslinfer -model model.json -in data.csv [-samples 2000] [-burnin 100]
//	          [-method best-averaged] [-top 0] [-seed 1]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model JSON from mrsllearn (required)")
		in        = flag.String("in", "", "input CSV relation (required)")
		samples   = flag.Int("samples", 2000, "Gibbs samples per tuple (multi-missing tuples)")
		burnin    = flag.Int("burnin", 100, "Gibbs burn-in sweeps")
		method    = flag.String("method", "best-averaged", "voting method: all-averaged, all-weighted, best-averaged, best-weighted")
		top       = flag.Int("top", 0, "keep only the top-K completions per block (0 = all)")
		seed      = flag.Int64("seed", 1, "sampler seed")
	)
	flag.Parse()
	if *modelPath == "" || *in == "" {
		fmt.Fprintln(os.Stderr, "mrslinfer: -model and -in are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *modelPath, *in, *samples, *burnin, *method, *top, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "mrslinfer: %v\n", err)
		os.Exit(1)
	}
}

func parseMethod(s string) (repro.Method, error) {
	switch s {
	case "all-averaged":
		return repro.AllAveraged(), nil
	case "all-weighted":
		return repro.AllWeighted(), nil
	case "best-averaged":
		return repro.BestAveraged(), nil
	case "best-weighted":
		return repro.BestWeighted(), nil
	}
	return repro.Method{}, fmt.Errorf("unknown method %q", s)
}

// run derives the relation in the CSV file in under the model in
// modelPath and prints the database to out, through one buffer: a write
// error, a full disk say, fails the run instead of truncating its output
// silently.
func run(out io.Writer, modelPath, in string, samples, burnin int, methodName string, top int, seed int64) error {
	method, err := parseMethod(methodName)
	if err != nil {
		return err
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
	df, err := os.Open(in)
	if err != nil {
		return err
	}
	defer df.Close()
	// Parse against the model's schema: inference-time data rarely
	// exercises every domain value, and re-inferring domains would
	// misalign value codes with the model.
	rel, err := repro.ReadCSVInSchema(df, model.Schema)
	if err != nil {
		return err
	}

	db, err := repro.Derive(model, rel, repro.DeriveOptions{
		Gibbs:           repro.GibbsOptions{Samples: samples, BurnIn: burnin, Method: method, Seed: seed},
		Method:          method,
		MaxAlternatives: top,
	})
	if err != nil {
		return err
	}

	s := model.Schema
	w := bufio.NewWriter(out)
	header := strings.Join(s.SortedAttrNames(), ",")
	fmt.Fprintf(w, "# derived probabilistic database: %d certain tuples, %d blocks\n",
		len(db.Certain), len(db.Blocks))
	fmt.Fprintf(w, "# %s,prob\n", header)
	for _, t := range db.Certain {
		fmt.Fprintf(w, "%s,1\n", renderTuple(s, t))
	}
	for bi, b := range db.Blocks {
		fmt.Fprintf(w, "# block %d for %s\n", bi+1, b.Base.Format(s))
		for _, alt := range b.Alts {
			fmt.Fprintf(w, "%s,%.4f\n", renderTuple(s, alt.Tuple), alt.Prob)
		}
	}
	return w.Flush()
}

func renderTuple(s *repro.Schema, t repro.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		if v == repro.Missing {
			parts[i] = "?"
		} else {
			parts[i] = s.Attrs[i].Domain[v]
		}
	}
	return strings.Join(parts, ",")
}
