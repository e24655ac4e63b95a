// Command benchgate is the benchmark gate of `make ci`: it times the
// change against its parent commit on the same host and fails only on a
// regression beyond both run-to-run noise and a fixed tolerance.
//
// The parent is HEAD when `git status --porcelain` lists anything (the
// change is the working tree), else HEAD^ (the change is HEAD). The
// parent is checked out with `git worktree add --detach` into a
// temporary directory outside the checkout, the root package's test
// binary is built once on each side, and the gated benchmarks run for
// ten pairs, alternating which side goes first. Per metric it prints
// both medians, the parent's [q1–q3], the change in percent and how many
// pairs the change lost. A metric regresses only when all three hold:
//
//   - the change loses at least 9 of the 10 pairs, ties counting for
//     neither side (a one-sided sign test, p ≈ 0.011);
//   - its median is more than 30% worse than the parent's;
//   - the medians are further apart than the parent's interquartile
//     range.
//
// Build, run and parse errors exit non-zero. Only a missing parent
// commit exits 0, with a printed note. Run it from the checkout:
//
//	go run ./scripts/benchgate
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
)

const (
	pairs = 10
	// minLosses is the sign test's critical value at ten pairs: the
	// change loses 9 or more of 10 fair coin flips with p = 11/1024.
	minLosses = 9
	tolerance = 0.30
)

// metric is one gated figure: a benchmark's name, without the
// -GOMAXPROCS suffix, and the unit of the value read off its result.
type metric struct{ name, unit string }

// higher reports whether a larger value is better: throughputs, whose
// units are per second, as against ns/op.
func (m metric) higher() bool { return strings.HasSuffix(m.unit, "/s") }

// invocation is one run of the test binary and the metrics it yields.
type invocation struct {
	bench, benchtime string
	metrics          []metric
}

// invocations time what perfbench cannot see: the streaming derivation
// under overlapping streams (perfbench drives one closed-loop client),
// first-contact votes and exact solves on fresh engines, the planner,
// the SPJ safe-join and dissociation paths, the adaptive topk and
// thresholded count on fresh engines, and warm reads of a live dataset
// in query_live's four shapes apart from HTTP.
var invocations = []invocation{
	{`^BenchmarkEngineConcurrent$`, "5x", []metric{
		{"BenchmarkEngineConcurrent/streams=1", "tuples/s"},
		{"BenchmarkEngineConcurrent/streams=4", "tuples/s"},
		{"BenchmarkEngineConcurrent/streams=16", "tuples/s"},
	}},
	{`^BenchmarkEngineCold$`, "20x", []metric{
		{"BenchmarkEngineCold", "tuples/s"},
	}},
	// The planner takes about 12 µs per plan, so it gets a run of its own
	// long enough (a quarter of a second or more) to tell a change from
	// scheduling noise; at 1000x its own IQR was about 20% of its median.
	{`^BenchmarkQueryPlanner$`, "20000x", []metric{
		{"BenchmarkQueryPlanner", "ns/op"},
	}},
	{`^(BenchmarkQuerySafeJoin|BenchmarkQueryDissociated)$`, "1000x", []metric{
		{"BenchmarkQuerySafeJoin", "ns/op"},
		{"BenchmarkQueryDissociated", "ns/op"},
	}},
	{`^(BenchmarkQueryAdaptive|BenchmarkQueryAdversarial)$`, "100x", []metric{
		{"BenchmarkQueryAdaptive/adaptive", "ns/op"},
		{"BenchmarkQueryAdversarial/adaptive", "ns/op"},
	}},
	// Four warm reads take about a quarter of a millisecond.
	{`^BenchmarkQueryLiveWarm$`, "1000x", []metric{
		{"BenchmarkQueryLiveWarm", "ns/op"},
	}},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := gate(ctx, ".", os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// gate measures the checkout containing dir against its parent commit,
// writes the table to w, and returns an error naming every regressed
// metric.
func gate(ctx context.Context, dir string, w io.Writer) (err error) {
	root, err := git(ctx, dir, "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := parentRev(ctx, root)
	if err != nil {
		return err
	}
	commit, err := git(ctx, root, "rev-parse", "--verify", "--quiet", rev+"^{commit}")
	if err != nil {
		fmt.Fprintf(w, "benchgate: no parent commit %s to compare against; nothing to gate\n", rev)
		return nil
	}
	change := "HEAD"
	if rev == "HEAD" {
		change = "working tree"
	}

	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "parent")
	if _, err := git(ctx, root, "worktree", "add", "--detach", "--quiet", wt, commit); err != nil {
		return err
	}
	defer func() {
		// Not ctx: the worktree must be unregistered after an interrupt too.
		if _, rmErr := git(context.Background(), root, "worktree", "remove", "--force", wt); err == nil {
			err = rmErr
		}
	}()

	dirs := [2]string{wt, root} // parent, change
	var bins [2]string
	for s, d := range dirs {
		bins[s] = filepath.Join(tmp, fmt.Sprintf("side%d.test", s))
		if _, err := command(ctx, d, "go", "test", "-c", "-o", bins[s], "."); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "benchgate: %s against parent %s (%.12s), %d pairs, GOMAXPROCS %d\n",
		change, rev, commit, pairs, runtime.GOMAXPROCS(0))
	samples := [2]map[metric][]float64{{}, {}} // parent, change; one value per run
	for p := 0; p < pairs; p++ {
		order := [2]int{0, 1}
		if p%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, s := range order {
			for _, inv := range invocations {
				out, err := command(ctx, dirs[s], bins[s], "-test.run=^$", "-test.bench="+inv.bench,
					"-test.benchtime="+inv.benchtime, "-test.timeout=10m")
				if err != nil {
					return err
				}
				res := parse(out)
				for _, m := range inv.metrics {
					if v, ok := res[m.name][m.unit]; ok {
						samples[s][m] = append(samples[s][m], v)
					}
				}
			}
		}
		fmt.Fprintf(w, "benchgate: pair %d/%d done\n", p+1, pairs)
	}

	var rows []row
	for _, inv := range invocations {
		for _, m := range inv.metrics {
			rows = append(rows, judge(m, samples[0][m], samples[1][m]))
		}
	}
	if failed := report(w, rows); len(failed) > 0 {
		return fmt.Errorf("%s fails against parent %s: %s", change, rev, strings.Join(failed, ", "))
	}
	return nil
}

// parentRev names the commit the change is measured against: HEAD when
// git status lists anything, since the change is then the working tree,
// and HEAD^ when the tree is clean and the change is HEAD.
func parentRev(ctx context.Context, root string) (string, error) {
	status, err := git(ctx, root, "status", "--porcelain")
	if err != nil {
		return "", err
	}
	if status != "" {
		return "HEAD", nil
	}
	return "HEAD^", nil
}

// git runs git in dir and returns its trimmed standard output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	out, err := command(ctx, dir, "git", args...)
	return strings.TrimSpace(string(out)), err
}

// command runs name in dir and returns its standard output. A failure
// carries everything the command printed.
func command(ctx context.Context, dir, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s in %s: %v\n%s%s", name, strings.Join(args, " "), dir, err, out, stderr.Bytes())
	}
	return out, nil
}

var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads go test benchmark output into name → unit → value. A
// result usually shares its benchmark's name line; output printed while
// the benchmark runs pushes it onto a later line of its own, which is
// credited to the last name seen.
func parse(out []byte) map[string]map[string]float64 {
	res := make(map[string]map[string]float64)
	name := ""
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") {
			name, f = procSuffix.ReplaceAllString(f[0], ""), f[1:]
		}
		if name == "" {
			continue
		}
		if vals, ok := result(f); ok {
			res[name] = vals
			name = ""
		}
	}
	return res
}

// result reads the fields of a benchmark result, an iteration count and
// then value-unit pairs, such as "5 1234 ns/op 4.4e+06 tuples/s".
func result(f []string) (map[string]float64, bool) {
	if len(f) < 3 || len(f)%2 == 0 {
		return nil, false
	}
	if _, err := strconv.Atoi(f[0]); err != nil {
		return nil, false
	}
	vals := make(map[string]float64)
	for i := 1; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return nil, false
		}
		vals[f[i+1]] = v
	}
	return vals, true
}

// row is one metric's line of the table.
type row struct {
	metric
	parent, q1, q3, change float64 // medians and the parent's quartiles
	losses                 int
	verdict                string // ok, REGRESSED, new or missing
}

// judge compares one metric's samples; p[i] and c[i] come from pair i.
// A metric the change lacks in any run, or the parent in only some,
// fails as missing; one the parent never reports is new and passes.
func judge(m metric, p, c []float64) row {
	r := row{metric: m, verdict: "missing"}
	if len(c) < pairs || (len(p) > 0 && len(p) < pairs) {
		return r
	}
	r.change = quantile(c, 0.5)
	if len(p) == 0 {
		r.verdict = "new"
		return r
	}
	r.parent, r.q1, r.q3 = quantile(p, 0.5), quantile(p, 0.25), quantile(p, 0.75)
	worse := func(parent, change float64) bool {
		if m.higher() {
			return change < parent
		}
		return change > parent
	}
	for i := range c {
		if worse(p[i], c[i]) {
			r.losses++
		}
	}
	bound := r.parent * (1 + tolerance)
	if m.higher() {
		bound = r.parent * (1 - tolerance)
	}
	r.verdict = "ok"
	if r.losses >= minLosses && worse(bound, r.change) && math.Abs(r.change-r.parent) > r.q3-r.q1 {
		r.verdict = "REGRESSED"
	}
	return r
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// report writes the table and returns the names of the failed metrics.
func report(w io.Writer, rows []row) []string {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tparent\t[q1 – q3]\tchange\tΔ\tlosses\tverdict")
	var failed []string
	for _, r := range rows {
		switch r.verdict {
		case "missing":
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t%s\n", r.name, r.unit, r.verdict)
		case "new":
			fmt.Fprintf(tw, "%s\t%s\t\t\t%.0f\t\t\t%s\n", r.name, r.unit, r.change, r.verdict)
		default:
			fmt.Fprintf(tw, "%s\t%s\t%.0f\t[%.0f – %.0f]\t%.0f\t%+.1f%%\t%d/%d\t%s\n", r.name, r.unit,
				r.parent, r.q1, r.q3, r.change, 100*(r.change/r.parent-1), r.losses, pairs, r.verdict)
		}
		if r.verdict == "REGRESSED" || r.verdict == "missing" {
			failed = append(failed, r.name+" "+r.verdict)
		}
	}
	tw.Flush()
	return failed
}
