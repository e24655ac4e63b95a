// Command perfbench is the repository's benchmark: it builds nothing
// itself (perfbench/run.sh builds cmd/mrslserve and this program), learns
// the BN7 model, starts a fresh mrslserve per timed pass, replays one
// workload's seeded request sequence over one keep-alive connection,
// checks every response against an in-process reference, and prints the
// metrics. See README.md for the workloads, the metrics and what each
// should move.
//
//	perfbench -server mrslserve -work dir --workload derive_hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the JSON result. A failed output
// check prints the result with "correct": false and exits 1; any other
// failure exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setups is how many times an untraced run sets up a fresh server; the
// reported setup_s is their median, so one slow exec does not move it,
// and the last w.passes of them each serve one timed pass.
const setups = 7

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string  // mrslserve binary
	work     string  // model, server logs and spans
	scale    float64 // body and dataset size multiplier; only the benchmark's own test shrinks it
}

func main() {
	cfg := config{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "derive_hot, derive_cold or query_live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "sizes the request sequence: seconds × a per-workload count of reads")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "mrslserve binary built from the commit under test")
	flag.StringVar(&cfg.work, "work", "", "directory for the model, server logs and spans")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.server == "" || cfg.work == "" || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -server, -work, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one run of cfg.workload and prints its report to out,
// ending with the JSON result line.
func run(cfg config, out io.Writer) (*result, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e, err := newEnv(dir)
	if err != nil {
		return nil, err
	}
	w, err := buildWorkload(cfg.workload, e, cfg.seed, cfg.seconds, cfg.scale)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d requests=%d reads=%d model_rules=%d cache_entries=%d\n",
		w.name, cfg.seed, len(w.seq), countReads(w.seq), e.model.Size(), w.cacheSize)

	host0 := readHostCPU()
	var (
		setupTimes []float64
		plains     []*pass
	)
	nSetups, nPasses := setups, w.passes
	if cfg.trace {
		nSetups, nPasses = 1, 1
	}
	for i := 0; i < nSetups; i++ {
		srv, d, err := setUp(cfg, e, w, dir, fmt.Sprintf("setup%d", i), false)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		var p *pass
		if i >= nSetups-nPasses {
			p, err = timedPass(w, srv, false)
			plains = append(plains, p)
		}
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
	}
	plain := plains[0]

	var (
		traced *pass
		lt     layerTimes
	)
	if cfg.trace {
		srv, _, err := setUp(cfg, e, w, dir, "traced", true)
		if err != nil {
			return nil, err
		}
		traced, err = timedPass(w, srv, true)
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		if traced.gc, err = gcTrace(srv.errPath, traced.errFrom, traced.errTo); err != nil {
			return nil, err
		}
		lt.origin = traced.start
	}
	host1 := readHostCPU()

	// Output checks, outside every timed section.
	checked := plains
	if traced != nil {
		checked = append(checked, traced)
	}
	chk, err := check(e, w, checked, cfg.trace, &lt)
	if err != nil {
		return nil, err
	}

	version, _ := exec.Command(cfg.server, "-version").Output() // a diagnostic: empty if it fails
	envRec := map[string]any{
		"cpu_model":                cpuModel(),
		"nproc":                    runtime.NumCPU(),
		"gomaxprocs":               serverGOMAXPROCS(),
		"go_version":               runtime.Version(),
		"server_version":           strings.TrimSpace(string(version)),
		"host_steal_share":         ratio(float64(host1.steal-host0.steal), float64(host1.total-host0.total)),
		"runq_wait_ms_per_request": runqMSPerRequest(plains...),
		"connections":              dials(plains),
	}
	envLine, _ := json.Marshal(envRec)
	fmt.Fprintf(out, "env %s\n", envLine)
	fmt.Fprintf(out, "set-ups_s %s\n", strings.Trim(fmt.Sprint(setupTimes), "[]"))

	printKinds(out, w, plains)
	e2e, err := endToEnd(out, w, plains, median(setupTimes), chk.klMean)
	if err != nil {
		return nil, err
	}
	printMetrics(out, "", e2e)
	res := &result{
		Correct:   chk.ok(),
		Attempted: len(w.seq) * len(plains),
		Failed:    failed(plains),
		Metrics:   map[string]metric{},
	}
	for _, m := range e2e {
		if m.reported {
			res.Metrics[m.name] = m.metric
		}
	}
	if cfg.trace {
		res.Attempted, res.Failed = len(w.seq), traced.failed
		layers := perLayer(w, plain, traced, &lt)
		printMetrics(out, "layer ", layers)
		res.Metrics = map[string]metric{}
		for _, m := range layers {
			res.Metrics[m.name] = m.metric
		}
		spansPath := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
		if err := writeSpans(spansPath, w, traced, &lt); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", spansPath)
	}
	for _, msg := range chk.failures {
		fmt.Fprintf(out, "check failed: %s\n", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// setUp starts a fresh server and runs the workload's set-up: dataset
// registration, then the warm requests. It returns the server and the
// set-up time, from exec to the end of the warm pass.
func setUp(cfg config, e *env, w *workload, dir, tag string, gctrace bool) (*server, time.Duration, error) {
	// The client's garbage from an earlier pass is collected now, not while
	// the server starts on the same two cores.
	runtime.GC()
	srv, err := startServer(cfg.server, e, w.cacheSize, dir, tag, gctrace)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c := newClient(srv.base)
	defer c.close()
	fail := func(err error) (*server, time.Duration, error) {
		srv.stop()
		return nil, 0, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	if w.datasetBody != nil {
		resp, err := c.do(request{path: "/datasets", body: w.datasetBody}, true, "")
		if err != nil {
			return fail(err)
		}
		var reg struct {
			ID     string `json:"id"`
			Tuples int    `json:"tuples"`
		}
		if err := json.Unmarshal(resp.body, &reg); err != nil || resp.status != 200 || reg.ID != liveDataset || reg.Tuples != len(w.dataset) {
			return fail(fmt.Errorf("registering the dataset: status %d, body %.200q", resp.status, resp.body))
		}
	}
	for _, r := range w.warm {
		resp, err := c.do(r, false, "")
		if err != nil {
			return fail(err)
		}
		if resp.status != 200 {
			return fail(fmt.Errorf("warm %s: status %d", r.path, resp.status))
		}
	}
	return srv, srv.ready + time.Since(start), nil
}

// pass is one timed replay of the workload's sequence against a fresh
// server.
type pass struct {
	resps          []response
	ids            []string
	start          time.Time
	failed         int
	before, after  scrape
	p0, p1         procSample
	dials          int64
	errFrom, errTo int64 // the timed phase's span of the server's stderr
	gc             gcStats
	marks          []mark // at each window's start and at the end
}

// mark is one reading taken between two requests at a window boundary:
// closed ends the previous window and opened starts the next, so the
// /proc reads between them fall outside every window.
type mark struct {
	closed, opened time.Time
	cpu            int64 // server CPU, clock ticks
	host           hostCPU
}

func (p *pass) mark(srv *server) error {
	closed := time.Now()
	ps, err := readProc(srv.pid())
	if err != nil {
		return err
	}
	p.marks = append(p.marks, mark{closed: closed, cpu: ps.cpuTicks, host: readHostCPU(), opened: time.Now()})
	return nil
}

// timedPass replays w.seq. A traced pass sends X-Request-ID and
// explain=analyze on every query; an untraced one sends neither.
func timedPass(w *workload, srv *server, traced bool) (*pass, error) {
	p := &pass{resps: make([]response, len(w.seq)), ids: make([]string, len(w.seq))}
	c := newClient(srv.base)
	defer c.close()
	var err error
	if p.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	if p.p0, err = readProc(srv.pid()); err != nil {
		return nil, err
	}
	p.errFrom = srv.stderrSize()
	p.start = time.Now()
	next := 0 // index into w.windows of the next window to open
	for i, r := range w.seq {
		if next < len(w.windows) && i == w.windows[next] {
			if err := p.mark(srv); err != nil {
				return nil, err
			}
			next++
		}
		if traced {
			p.ids[i] = fmt.Sprintf("%s-%d", w.name, i)
			if r.kind != kindDerive && r.kind != kindObserve {
				r.path += "&explain=analyze"
			}
		}
		resp, err := c.do(r, r.kind != kindDerive, p.ids[i])
		if err != nil || resp.status != 200 {
			p.failed++
		}
		p.resps[i] = resp
	}
	if err := p.mark(srv); err != nil {
		return nil, err
	}
	if p.p1, err = readProc(srv.pid()); err != nil {
		return nil, err
	}
	p.errTo = srv.stderrSize()
	if p.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	p.dials = c.dials.Load()
	return p, nil
}

func (p *pass) cpuMS() float64 { return float64(p.p1.cpuTicks-p.p0.cpuTicks) * 1000 / clockTicks }

func (p *pass) perRequest(v float64) float64 { return ratio(v, float64(len(p.resps))) }

// runqMSPerRequest is the server's run-queue wait over passes ps, per
// request.
func runqMSPerRequest(ps ...*pass) float64 {
	var ns, n int64
	for _, p := range ps {
		ns += p.p1.runqNS - p.p0.runqNS
		n += int64(len(p.resps))
	}
	return ratio(float64(ns)/1e6, float64(n))
}

func dials(ps []*pass) []int64 {
	var out []int64
	for _, p := range ps {
		out = append(out, p.dials)
	}
	return out
}

func failed(ps []*pass) int {
	n := 0
	for _, p := range ps {
		n += p.failed
	}
	return n
}

func countReads(seq []request) int {
	n := 0
	for _, r := range seq {
		if r.read() {
			n++
		}
	}
	return n
}

// namedMetric is one printed metric. reported marks the end-to-end
// metrics the JSON result carries (BENCHMARK.json lists exactly those);
// the others are printed for the reader only.
type namedMetric struct {
	name string
	metric
	reported bool
}

// window is one consecutive slice of the timed sequence, measured on
// its own.
type window struct {
	requests                   int
	wallS                      float64
	p50, p90, firstP50, cpuPer float64
	steal                      float64 // host steal share over the window
}

// windows measures each of w.windows in pass p, the warm-up first.
func windows(w *workload, p *pass) ([]window, error) {
	var out []window
	for k, from := range w.windows {
		to := len(w.seq)
		if k+1 < len(w.windows) {
			to = w.windows[k+1]
		}
		var lat, first []float64
		for i := from; i < to; i++ {
			if w.seq[i].read() {
				lat = append(lat, ms(p.resps[i].last))
				first = append(first, ms(p.resps[i].first))
			}
		}
		p90, ok := percentile(lat, 0.9)
		if !ok {
			return nil, fmt.Errorf("window %d: %d reads are too few to report p90", k, len(lat))
		}
		a, b := p.marks[k], p.marks[k+1]
		out = append(out, window{
			requests: to - from,
			wallS:    b.closed.Sub(a.opened).Seconds(),
			p50:      median(lat),
			p90:      p90,
			firstP50: median(first),
			cpuPer:   float64(b.cpu-a.cpu) * 1000 / clockTicks / float64(to-from),
			steal:    ratio(float64(b.host.steal-a.host.steal), float64(b.host.total-a.host.total)),
		})
	}
	return out, nil
}

// endToEnd derives the end-to-end metrics of the untraced passes. Every
// timing is the client's. A pass's sequence is cut into windows of the
// same work, each measured on its own, and a timing metric is the median
// over the measured windows of every pass: a slow spell of the host that
// hits a few windows of the run moves it far less than it moves a figure
// pooled over the whole run (see README.md). The reported tail is p90,
// each window's with at least ten reads beyond it; p99 is printed, pooled
// over the measured windows, whenever ten samples lie beyond it.
func endToEnd(out io.Writer, w *workload, ps []*pass, setupS, klMean float64) ([]namedMetric, error) {
	var (
		ws            []window
		lat, obs, hwm []float64
	)
	for n, p := range ps {
		all, err := windows(w, p)
		if err != nil {
			return nil, err
		}
		for k, x := range all {
			name := fmt.Sprintf("window %d.%d", n, k)
			if k == 0 {
				name = fmt.Sprintf("warm-up %d", n)
			}
			fmt.Fprintf(out, "%s requests=%d requests_per_s=%.4g p50_ms=%.4g p90_ms=%.4g first_record_p50_ms=%.4g server_cpu_ms_per_request=%.4g host_steal_share=%.3f\n",
				name, x.requests, float64(x.requests)/x.wallS, x.p50, x.p90, x.firstP50, x.cpuPer, x.steal)
		}
		ws = append(ws, all[1:]...)
		for i := w.windows[1]; i < len(w.seq); i++ {
			if w.seq[i].read() {
				lat = append(lat, ms(p.resps[i].last))
			} else {
				obs = append(obs, ms(p.resps[i].last))
			}
		}
		hwm = append(hwm, float64(p.p1.hwmKB)/1024)
	}
	over := func(f func(window) float64) float64 {
		xs := make([]float64, len(ws))
		for i, x := range ws {
			xs[i] = f(x)
		}
		return median(xs)
	}
	metrics := []namedMetric{
		{"setup_s", metric{setupS, "s"}, true},
		{"requests_per_s", metric{over(func(x window) float64 { return float64(x.requests) / x.wallS }), "1/s"}, true},
		{"p50_ms", metric{over(func(x window) float64 { return x.p50 }), "ms"}, true},
		{"p90_ms", metric{over(func(x window) float64 { return x.p90 }), "ms"}, true},
		{"first_record_p50_ms", metric{over(func(x window) float64 { return x.firstP50 }), "ms"}, true},
		{"server_cpu_ms_per_request", metric{over(func(x window) float64 { return x.cpuPer }), "ms"}, true},
		{"peak_rss_mb", metric{median(hwm), "MiB"}, true},
		{"kl_mean", metric{klMean, "nats"}, true},
		{"error_rate", metric{ratio(float64(failed(ps)), float64(len(w.seq)*len(ps))), "fraction"}, false},
	}
	if p99, ok := percentile(lat, 0.99); ok {
		metrics = append(metrics, namedMetric{"p99_ms", metric{p99, "ms"}, false})
	}
	if len(obs) > 0 {
		metrics = append(metrics, namedMetric{"observe_p50_ms", metric{median(obs), "ms"}, false})
	}
	return metrics, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printKinds prints the latency spread of each request kind, so a reader
// can see which population a percentile of the mixed sequence falls in.
func printKinds(out io.Writer, w *workload, ps []*pass) {
	byKind := map[string][]float64{}
	var kinds []string
	for _, p := range ps {
		for i, r := range w.seq {
			if _, ok := byKind[r.kind]; !ok {
				kinds = append(kinds, r.kind)
			}
			byKind[r.kind] = append(byKind[r.kind], ms(p.resps[i].last))
		}
	}
	for _, k := range kinds {
		lat := byKind[k]
		p90, _ := percentile(lat, 0.9)
		top, _ := percentile(lat, 1)
		fmt.Fprintf(out, "kind %s n=%d p50_ms=%.4g p90_ms=%.4g max_ms=%.4g\n", k, len(lat), median(lat), p90, top)
	}
}

func printMetrics(out io.Writer, prefix string, ms []namedMetric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%smetric %s %.6g %s\n", prefix, m.name, m.Value, m.Unit)
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// serverGOMAXPROCS is the GOMAXPROCS the server runs with: the inherited
// environment's setting, or the CPU count.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return fmt.Sprint(runtime.NumCPU())
}
