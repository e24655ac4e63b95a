// Command mrslserve serves streaming derivations and probabilistic
// queries over HTTP from one long-lived repro.Engine: the model is loaded
// once, and every request shares the engine's evidence-keyed caches, so
// repeated damage patterns across requests are inferred exactly once for
// the life of the process.
//
// Usage:
//
//	mrslserve -model model.json [-addr :8080] [-workers 8] [-samples 800]
//	          [-cache-entries 65536] [-max-inflight 0] [-default-timeout 0]
//	          [-read-header-timeout 5s] [-idle-timeout 2m] [-drain-timeout 10s]
//	          [-shed-after-misses 0]
//
// Fail-soft serving. With -default-timeout (or a per-request timeout_ms=
// parameter on /derive and /query) every inference request runs under a
// deadline budget: when it nears exhaustion, queries answer the remaining
// expensive tuples from their sound dissociation intervals — records
// flagged "degraded":true with [lo, hi] brackets — and derive streams end
// with a terminal "truncated" record; the lines already emitted are
// exact. SIGTERM/SIGINT drains gracefully: /healthz flips to 503
// draining, new inference requests shed with 503 + Retry-After, watch
// subscriptions receive their "end" record, and in-flight requests get
// -drain-timeout to finish. With -shed-after-misses N, N consecutive
// deadline misses also shed new requests until a request completes within
// budget again. Handler panics are converted to error responses (counted
// in /stats server_panics); engine-side pool panics become typed request
// errors (engine PanicsRecovered) — either way the process keeps serving.
//
// The engine's memoization caches (vote blocks, multi-missing joints,
// local CPDs) are bounded to -cache-entries entries each with CLOCK
// eviction, so the server runs in fixed memory under unbounded damage
// pattern diversity; eviction never changes responses, it only costs
// recomputation. With -max-inflight > 0 at most that many
// derivation/query requests run concurrently; excess requests are
// rejected immediately with 429 and a Retry-After header instead of
// queuing without bound. Client disconnects cancel in-flight work: both
// endpoints evaluate under the request's context.
//
// Endpoints:
//
//	POST /derive   body: CSV relation over the model's schema ("?" marks
//	               missing values). Streams the derived database back as
//	               NDJSON — a schema record, then one record per input
//	               tuple in input order (certain values, or a block of
//	               alternatives with probabilities). The stream is
//	               flushed after its first record and whenever the
//	               engine is about to wait on or compute a block that is
//	               not ready, so clients read each block as soon as it is
//	               inferred; lines served from the caches go out in
//	               net/http's buffered writes. Query
//	               parameters voteworkers and gibbsworkers override the
//	               request's pool sizes (never the result). With
//	               dataset=<id> the body is ignored and the registered
//	               dataset's conditioned database is derived instead:
//	               observed tuples emit their Bayesian posterior blocks,
//	               the rest resolve exactly as a batch derivation would.
//	POST /query    body: CSV relation over the model's schema. Query
//	               parameters: op (count, exists, topk, groupby), where
//	               (conjunctive conditions "attr=value,attr>=value,..."),
//	               groupby (histogram attribute), k, minprob, plus the
//	               same pool overrides as /derive. Streams NDJSON: a
//	               query record, then result records, then a summary
//	               record with the chosen plan (selectivity-ordered
//	               predicates, resolution-tier counts) and the
//	               evaluation's pruning/bound counters. count and exists
//	               emit one result record; topk and groupby stream
//	               incrementally as blocks resolve — in-flight snapshots
//	               are marked "partial":true (topk re-emits the current
//	               rows when they move, groupby emits only the buckets
//	               that changed) and the settled results follow with
//	               "final":true. Answers are bit-identical to deriving
//	               the posted relation through /derive and evaluating
//	               the stream naively, but selective queries infer only
//	               the tuples the bounds leave undecided — multi-missing
//	               tuples whose dissociation interval already decides
//	               the threshold are never sampled. With dataset=<id>
//	               the body is ignored and the query evaluates over the
//	               dataset's conditioned snapshot; adding watch=1 turns
//	               it into a subscription: the connection stays open and
//	               after every /observe delta only the result records
//	               the delta actually changed are re-emitted, marked
//	               "partial":true and stamped with the dataset version,
//	               until the client disconnects or the dataset is
//	               dropped (which appends an "end" record).
//
//	               With sql=<statement> (URL parameter, or an "sql"
//	               field of a multipart/form-data body) the query is
//	               intensional: the SQL-ish statement "[select cols|*]
//	               from R [join S on a=b]... [where conds]" names its
//	               input relations, each resolved from a multipart file
//	               field with the relation's name (a CSV under its own
//	               header) or, failing that, from a parameter
//	               <name>=<dataset id> naming a registered dataset.
//	               The op/k/minprob parameters apply unchanged (the
//	               statement's where tail replaces the where parameter),
//	               keepkeys=1 keeps join-key columns. The join chain is
//	               folded with per-row lineage and analyzed for safety:
//	               safe (hierarchical) plans answer exactly; unsafe
//	               plans stay exact for linear operators, while exists
//	               reports the dissociated mass with its sound [lo, hi]
//	               interval and the summary carries the join order and
//	               verdict. sql is incompatible with dataset=/watch=1.
//	POST /datasets register the posted CSV relation as a live dataset;
//	               returns {"kind":"dataset","id":...} whose id the
//	               dataset= parameters and /observe address. With
//	               schema=own the CSV keeps its own header and domains
//	               and registers as a join-input dataset: usable only
//	               as a named input of sql= queries, not observable or
//	               derivable. DELETE
//	               /datasets/{id} drops it, ending its watch streams.
//	POST /observe  apply evidence deltas to a registered dataset. Body:
//	               {"dataset":"ds1","observations":[{"index":7,
//	               "attr":"income","value":"50K"}]} with attributes and
//	               values as schema labels. Deltas apply in order;
//	               conditioning is exact Bayesian filtering of the
//	               tuple's block, and the engine invalidates exactly the
//	               superseded conditioned entry — nothing else. A
//	               conflicting or zero-remaining-mass delta stops the
//	               batch with 409 and reports how many applied.
//	GET  /stats    "engine": the EngineStats snapshot under its Go
//	               field names (cache, query, live-evidence and
//	               fail-soft counters; the same snapshot /metrics
//	               exports as mrsl_engine_*), plus the server's own
//	               admission counters (requests = accepted + rejected +
//	               shed), drain state, handler panics, uptime, build
//	               revision.
//	GET  /metrics  Prometheus text exposition: every engine stats counter
//	               (mrsl_engine_*), per-endpoint request latency
//	               histograms (mrsl_http_request_seconds{path=...}),
//	               engine stage histograms (vote, Gibbs chains, bounds,
//	               prefetch waits, sink emission), query plan/exec
//	               histograms, server admission counters and in-flight/
//	               draining gauges, and a mrsl_build_info gauge. Scraping
//	               runs no inference and bypasses admission control.
//	GET  /healthz  liveness probe.
//
// Observability. Every response carries an X-Request-ID header (honored
// from the request when present, generated otherwise), and each request
// is logged as one structured log/slog line with method, path, status,
// duration, and request id. On /query, explain=analyze enables
// explain-analyze: the summary's plan block gains a timing section with
// measured planning, wall, and per-tier resolution durations (tuples +
// duration_ms per tier); trace=1 additionally appends a {"kind":"trace"}
// NDJSON record carrying the request's engine/executor spans. Neither
// changes answers. -pprof addr mounts net/http/pprof on a separate
// listener; -version prints the build revision and exits.
//
// With -addr host:0 the kernel picks a free port; the chosen address is
// printed as "mrslserve: listening on <addr>" so scripts can scrape it.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model JSON from mrsllearn (required)")
		addr      = flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
		samples   = flag.Int("samples", 800, "Gibbs samples per distinct multi-missing tuple; with -burnin it also sets the exact tier's rule (kernels needing at most (burnin+samples)*k local CPDs are solved exactly)")
		burnin    = flag.Int("burnin", 100, "Gibbs burn-in sweeps; burnin+samples also caps an exact solve's power-iteration sweeps")
		seed      = flag.Int64("seed", 1, "sampler seed")
		workers   = flag.Int("workers", 8, "default multi-missing pool size per request, running exact solves and Gibbs chains (0 = GOMAXPROCS)")
		voters    = flag.Int("voteworkers", 0, "default voting pool size per request (0 = GOMAXPROCS)")
		maxAlts   = flag.Int("maxalts", 0, "cap block alternatives (0 keeps all)")
		cacheEnts = flag.Int("cache-entries", 1<<16, "bound each engine cache (votes, joints, conditioned blocks, CPDs) to this many entries, CLOCK-evicted (0 = unbounded vote/joint/conditioned-block caches, default-capped CPD memo); eviction never changes results")
		inflight  = flag.Int("max-inflight", 0, "maximum concurrent derivation/query requests; excess requests get 429 with Retry-After (0 = unlimited)")

		defTimeout = flag.Duration("default-timeout", 0, "default deadline budget per /derive and /query request; requests degrade to sound bounds instead of failing when it runs out (0 = none; timeout_ms= overrides per request)")
		readHdrTO  = flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout: slow-loris guard")
		readTO     = flag.Duration("read-timeout", 0, "http.Server ReadTimeout (0 = none; watch streams need none)")
		writeTO    = flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 = none; streaming responses need none)")
		idleTO     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT, wait this long for in-flight requests to drain before exiting")
		shedAfter  = flag.Int64("shed-after-misses", 0, "shed new inference requests with 503 after this many consecutive deadline misses (0 = never)")

		pprofAddr = flag.String("pprof", "", "mount net/http/pprof on this separate listener address (e.g. 127.0.0.1:6060; empty = off)")
		version   = flag.Bool("version", false, "print the build revision and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("mrslserve %s %s\n", obs.BuildRevision(), obs.GoVersion())
		return
	}
	if *modelPath == "" {
		fmt.Fprintln(os.Stderr, "mrslserve: -model is required")
		flag.Usage()
		os.Exit(2)
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrslserve: %v\n", err)
		os.Exit(1)
	}
	model, err := repro.LoadModel(mf)
	mf.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrslserve: %v\n", err)
		os.Exit(1)
	}
	opt := repro.DeriveOptions{
		Method:          repro.BestAveraged(),
		MaxAlternatives: *maxAlts,
		Workers:         *workers,
		VoteWorkers:     *voters,
		CacheEntries:    *cacheEnts,
		Gibbs: repro.GibbsOptions{
			Samples: *samples, BurnIn: *burnin, Seed: *seed, Method: repro.BestAveraged(),
		},
	}
	srv, err := newServer(model, opt, *inflight)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrslserve: %v\n", err)
		os.Exit(1)
	}
	srv.defaultTimeout = *defTimeout
	srv.shedAfter = *shedAfter
	srv.log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv.log.Info("mrslserve starting",
		"revision", obs.BuildRevision(), "go", obs.GoVersion(), "model", *modelPath)
	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener so the profiling
		// surface never shares a port (or a route table) with serving.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", netpprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrslserve: cannot bind pprof %s: %v\n", *pprofAddr, err)
			os.Exit(1)
		}
		srv.log.Info("pprof listening", "addr", pln.Addr().String())
		go http.Serve(pln, pm)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrslserve: cannot bind %s: %v\n", *addr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: *readHdrTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}
	// Graceful drain: SIGTERM/SIGINT stops accepting, flips /healthz to
	// draining, lets watch subscribers receive their end record, and waits
	// up to -drain-timeout for in-flight requests before exiting.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		defer close(done)
		got := <-sig
		fmt.Printf("mrslserve: %s received, draining (up to %s)\n", got, *drainTO)
		srv.beginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mrslserve: drain incomplete: %v\n", err)
		}
	}()
	fmt.Printf("mrslserve: listening on %s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "mrslserve: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("mrslserve: drained, bye")
}

// server routes HTTP traffic onto one shared derivation engine.
type server struct {
	model *repro.Model
	eng   *repro.Engine
	mux   *http.ServeMux
	start time.Time

	// log emits one structured line per request (method, path, status,
	// duration, request id) plus lifecycle events. Defaults to discard so
	// embedded/test servers stay quiet; main wires it to stderr.
	log    *slog.Logger
	reqSeq atomic.Int64 // generated request-id sequence

	// Registry-backed serving gauges (exported on /metrics alongside the
	// stage histograms the engine packages register at init). The counter
	// gauges are refreshed from the atomics at scrape time.
	mInflight, mDraining                                    *obs.Gauge
	mRequests, mAccepted, mFailed, mRejected, mShed, mPanic *obs.Gauge

	// slots is the admission semaphore (nil = unlimited): a request must
	// take a slot before running inference and returns it when done.
	slots chan struct{}

	// defaultTimeout is the deadline budget applied to /derive and /query
	// when the request carries no timeout_ms= parameter (0 = none). A
	// request whose budget runs out degrades — sound bounds, truncated
	// streams — instead of failing.
	defaultTimeout time.Duration
	// shedAfter sheds new inference requests with 503 once this many
	// consecutive requests missed their deadline budget (0 = never):
	// sustained misses mean the engine cannot keep up, and shedding beats
	// serving every caller a degraded answer late. One probe request per
	// second is still admitted (half-open) so a recovered engine lifts the
	// shed by completing it cleanly.
	shedAfter  int64
	missStreak atomic.Int64 // consecutive deadline-missing inference requests
	lastProbe  atomic.Int64 // unix nanos of the last half-open probe admission

	// drain is closed by beginDrain (SIGTERM): watch streams end, new
	// inference requests shed with 503, /healthz reports draining.
	drain     chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool

	requests atomic.Int64 // inference requests offered (= accepted + rejected + shed)
	accepted atomic.Int64 // requests admitted past the semaphore
	failed   atomic.Int64 // accepted requests that ended in an error
	rejected atomic.Int64 // requests turned away at admission (429, saturated)
	shed     atomic.Int64 // requests turned away with 503 (draining or sustained misses)
	panics   atomic.Int64 // handler panics converted to error responses
}

func newServer(model *repro.Model, opt repro.DeriveOptions, maxInflight int) (*server, error) {
	eng, err := repro.NewEngine(model, opt)
	if err != nil {
		return nil, err
	}
	s := &server{
		model: model, eng: eng, mux: http.NewServeMux(), start: time.Now(),
		drain: make(chan struct{}),
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if maxInflight > 0 {
		s.slots = make(chan struct{}, maxInflight)
	}
	s.mInflight = obs.Default.Gauge("mrsl_http_inflight", "", "Inference requests currently in flight.")
	s.mDraining = obs.Default.Gauge("mrsl_server_draining", "", "1 while the server is draining after SIGTERM.")
	s.mRequests = obs.Default.Gauge("mrsl_server_requests", "", "Inference requests offered (accepted + rejected + shed).")
	s.mAccepted = obs.Default.Gauge("mrsl_server_accepted", "", "Inference requests admitted past the semaphore.")
	s.mFailed = obs.Default.Gauge("mrsl_server_failed", "", "Accepted requests that ended in an error.")
	s.mRejected = obs.Default.Gauge("mrsl_server_rejected", "", "Requests rejected 429 at admission (engine saturated).")
	s.mShed = obs.Default.Gauge("mrsl_server_shed", "", "Requests shed 503 (draining or sustained deadline misses).")
	s.mPanic = obs.Default.Gauge("mrsl_server_panics", "", "Handler panics converted to error responses.")
	s.route("POST", "/derive", s.admit(s.handleDerive))
	s.route("POST", "/query", s.admit(s.handleQuery))
	s.route("POST", "/datasets", s.handleRegisterDataset)
	s.route("DELETE", "/datasets/{id}", s.handleDropDataset)
	s.route("POST", "/observe", s.admit(s.handleObserve))
	s.route("GET", "/stats", s.handleStats)
	s.route("GET", "/healthz", s.handleHealthz)
	// /metrics bypasses admission control: scraping must work while the
	// engine is saturated or draining, and never counts as offered load.
	s.route("GET", "/metrics", s.handleMetrics)
	return s, nil
}

// route registers pattern on the mux wrapped with per-endpoint
// observability: a latency histogram labeled by path and one structured
// log line per request. The deferred record runs even when the handler
// panics (the panic still propagates to the ServeHTTP boundary).
func (s *server) route(method, path string, h http.HandlerFunc) {
	hist := obs.Default.Histogram("mrsl_http_request_seconds",
		`path="`+path+`"`, "HTTP request latency by endpoint.")
	s.mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			d := time.Since(start)
			hist.Observe(d)
			status := http.StatusOK
			if tw, ok := w.(*trackWriter); ok && tw.status != 0 {
				status = tw.status
			}
			s.log.Info("request", "method", r.Method, "path", path, "status", status,
				"duration_ms", float64(d.Nanoseconds())/1e6,
				"request_id", obs.RequestIDFrom(r.Context()))
		}()
		h(w, r)
	})
}

// beginDrain flips the server into draining mode, once: /healthz turns
// 503, new inference requests shed, and watch streams emit their end
// record so http.Server.Shutdown can complete.
func (s *server) beginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.mDraining.Set(1)
		close(s.drain)
	})
}

// ServeHTTP is the panic-isolation boundary for every handler: a
// panicking request is converted into a 500 (or, mid-stream, a terminal
// NDJSON error record) and counted, and the process — engine, caches,
// datasets — keeps serving. http.ErrAbortHandler passes through: it is
// the stdlib's own abort protocol, not a defect.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Request identity: honor an inbound X-Request-ID, generate one
	// otherwise; echo it on the response and carry it in the context so
	// log lines and error/summary records correlate with client traces.
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = fmt.Sprintf("%x-%x", s.start.UnixNano(), s.reqSeq.Add(1))
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(obs.WithRequestID(r.Context(), id))
	tw := &trackWriter{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panics.Add(1)
		s.failed.Add(1)
		if !tw.wrote {
			http.Error(tw, fmt.Sprintf("internal error: recovered panic: %v", rec), http.StatusInternalServerError)
			return
		}
		// The response is already under way (possibly an NDJSON stream):
		// append a terminal error record instead of a status the client
		// can no longer see.
		json.NewEncoder(tw).Encode(map[string]string{
			"kind": "error", "error": fmt.Sprintf("recovered panic: %v", rec), "request_id": id,
		})
	}()
	s.mux.ServeHTTP(tw, r)
}

// trackWriter records whether the response has started (and with which
// status), so the panic boundary knows whether a status code can still
// be sent and the request log can report what was served. It forwards
// Flush so streaming handlers can send buffered lines early.
type trackWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
}

func (t *trackWriter) WriteHeader(code int) {
	t.wrote = true
	if t.status == 0 {
		t.status = code
	}
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackWriter) Write(p []byte) (int, error) {
	t.wrote = true
	if t.status == 0 {
		t.status = http.StatusOK
	}
	return t.ResponseWriter.Write(p)
}

func (t *trackWriter) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit wraps an inference handler with admission control. When the
// server is draining, or consecutive deadline misses show the engine
// cannot keep up, the request is shed with 503; when the engine is
// saturated it is rejected with 429. Both carry Retry-After and neither
// queues without bound.
func (s *server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Count the request when it is offered, before the admission
		// decision, so requests == accepted + rejected + shed always holds
		// — a turned-away request is still offered load.
		s.requests.Add(1)
		if reason := s.shedReason(); reason != "" {
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		if s.slots != nil {
			select {
			case s.slots <- struct{}{}:
				defer func() { <-s.slots }()
			default:
				s.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "engine saturated: too many in-flight requests", http.StatusTooManyRequests)
				return
			}
		}
		s.accepted.Add(1)
		s.mInflight.Inc()
		defer s.mInflight.Dec()
		h(w, r)
	}
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format: the registry's stage histograms and serving gauges (counter
// gauges refreshed from the atomics at scrape time), every EngineStats
// counter as an mrsl_engine_* gauge, and the build-info gauge.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mRequests.Set(s.requests.Load())
	s.mAccepted.Set(s.accepted.Load())
	s.mFailed.Set(s.failed.Load())
	s.mRejected.Set(s.rejected.Load())
	s.mShed.Set(s.shed.Load())
	s.mPanic.Set(s.panics.Load())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	repro.WriteMetrics(w)
	repro.WriteEngineStatsMetrics(w, "mrsl_engine_", s.eng.Stats())
	obs.WriteGauge(w, "mrsl_build_info",
		`goversion="`+obs.GoVersion()+`",revision="`+obs.BuildRevision()+`"`,
		"Build identity of the running binary (value is always 1).", 1)
}

// shedReason reports why a new inference request must be shed with 503,
// or "" to admit it.
func (s *server) shedReason() string {
	if s.draining.Load() {
		return "server draining: retry against another replica"
	}
	if s.shedAfter > 0 && s.missStreak.Load() >= s.shedAfter {
		// Half-open circuit breaker: admit one probe request per second so
		// the server can discover the engine caught up (a clean completion
		// resets the streak) instead of shedding forever.
		now := time.Now().UnixNano()
		last := s.lastProbe.Load()
		if now-last >= int64(time.Second) && s.lastProbe.CompareAndSwap(last, now) {
			return ""
		}
		return "engine overloaded: sustained deadline misses"
	}
	return ""
}

// noteBudget tracks the consecutive-deadline-miss streak behind
// shed-after-misses: degraded or truncated requests extend it, clean
// ones reset it.
func (s *server) noteBudget(missed bool) {
	if missed {
		s.missStreak.Add(1)
	} else {
		s.missStreak.Store(0)
	}
}

// budget reads the request's deadline budget: timeout_ms= overrides the
// server's -default-timeout, 0 disables. The budget bounds inference
// wall-clock — when it runs out, queries degrade to sound bounds and
// derive streams truncate with a terminal record instead of erroring.
func (s *server) budget(r *http.Request) (time.Duration, error) {
	d := s.defaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("query parameter timeout_ms must be a non-negative integer, got %q", v)
		}
		d = time.Duration(n) * time.Millisecond
	}
	return d, nil
}

// withBudget derives the evaluation context for one inference pass.
func withBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// handleDerive parses the posted CSV against the model schema and streams
// the derived database back as NDJSON, one line per item, written to the
// ResponseWriter and flushed by the engine when it would otherwise wait
// (see repro.Sink). The stream runs under the request context, so a client
// disconnect cancels in-flight derivation work; a deadline budget that
// runs out ends the stream with a terminal "truncated" record — the
// lines already emitted are exact and usable.
func (s *server) handleDerive(w http.ResponseWriter, r *http.Request) {
	pools, err := poolsFromQuery(r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := s.budget(r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// trace=1: record engine stage spans and append a {"kind":"trace"}
	// record after the stream.
	if r.URL.Query().Get("trace") == "1" {
		r = r.WithContext(repro.WithTrace(r.Context(), repro.NewTrace()))
	}
	ctx, cancel := withBudget(r.Context(), d)
	defer cancel()
	// finishStream reports the stream's end: a spent budget becomes a
	// truncated record (a soft, bounded outcome — not a failure), anything
	// else an error record.
	finishStream := func(err error) {
		if err == nil {
			s.noteBudget(false)
			return
		}
		if d > 0 && errors.Is(err, context.DeadlineExceeded) {
			s.noteBudget(true)
			json.NewEncoder(w).Encode(map[string]any{
				"kind": "truncated", "reason": "deadline budget exhausted",
				"timeout_ms": d.Milliseconds(),
			})
			return
		}
		s.failed.Add(1)
		json.NewEncoder(w).Encode(errRecord(r, err))
	}
	if id := r.URL.Query().Get("dataset"); id != "" {
		// Registered dataset: derive the conditioned snapshot instead of a
		// posted relation. The body is ignored.
		ds, ok := s.eng.Dataset(id)
		if !ok {
			s.failed.Add(1)
			http.Error(w, "unknown dataset "+id, http.StatusNotFound)
			return
		}
		if ds.JoinInput() {
			s.failed.Add(1)
			http.Error(w, "dataset "+id+" is a join input (schema=own): bind it in an sql= query instead", http.StatusBadRequest)
			return
		}
		snap, err := ds.Snapshot(ctx)
		if err != nil {
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		sink := repro.NewJSONLSink(w, s.model.Schema)
		finishStream(s.eng.DeriveSnapshot(ctx, snap, pools, sink))
		s.writeTrace(w, r)
		return
	}
	rel, err := repro.ReadCSVInSchema(r.Body, s.model.Schema)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	sink := repro.NewJSONLSink(w, s.model.Schema)
	if err := s.eng.DeriveToContext(ctx, rel, pools, sink); err != nil {
		var mismatch *repro.SchemaMismatchError
		if errors.As(err, &mismatch) {
			// ReadCSVInSchema makes this unreachable in practice, but the
			// engine's own validation still deserves a 4xx, not a 5xx.
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The NDJSON stream may already be under way; append a terminal
		// record instead of a status code the client can no longer see.
		finishStream(err)
		s.writeTrace(w, r)
		return
	}
	s.noteBudget(false)
	s.writeTrace(w, r)
}

// writeTrace appends the request's {"kind":"trace"} record when trace=1
// attached a span recorder (streams without a summary record, like
// /derive, end with it).
func (s *server) writeTrace(w io.Writer, r *http.Request) {
	tr := repro.TraceFrom(r.Context())
	if tr == nil {
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"kind": "trace", "request_id": obs.RequestIDFrom(r.Context()), "spans": tr.Spans(),
	})
}

// handleQuery compiles the query expressed in the URL parameters,
// evaluates it over the posted CSV on the engine's caches, and streams
// the answer as NDJSON: a query record, one record per result, and a
// summary record with the chosen plan and the pruning counters.
// Evaluation runs under the request context.
//
// Count and exists fold scalars, so their evaluation completes before
// the first byte is written (and failures carry real status codes).
// TopK and groupby stream incrementally: as blocks resolve, the current
// rows (and the group buckets that changed) are flushed as records
// marked "partial":true, and the settled results follow with
// "final":true before the summary — so a client watching a long
// evaluation sees the answer take shape instead of waiting for the
// buffer.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	pools, err := poolsFromQuery(r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d, err := s.budget(r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// trace=1 attaches a span recorder: engine and executor stages
	// observe into it, and the summary is followed by a {"kind":"trace"}
	// record. Tracing also enables per-tier timing, like explain=analyze.
	if r.URL.Query().Get("trace") == "1" {
		r = r.WithContext(repro.WithTrace(r.Context(), repro.NewTrace()))
	}
	// Intensional SQL statements (sql= URL parameter, or an sql field of
	// a multipart body) take a different front half — multi-relation
	// inputs, SPJ compilation, safety analysis — and share the back half.
	sqlText := r.URL.Query().Get("sql")
	if strings.HasPrefix(r.Header.Get("Content-Type"), "multipart/form-data") {
		if err := r.ParseMultipartForm(32 << 20); err != nil {
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if v := r.PostFormValue("sql"); v != "" {
			sqlText = v
		}
		if sqlText == "" {
			s.failed.Add(1)
			http.Error(w, "multipart /query requires an sql statement (sql field or URL parameter)", http.StatusBadRequest)
			return
		}
	}
	if sqlText != "" {
		s.handleSQLQuery(w, r, sqlText, pools, d)
		return
	}
	q, err := queryFromRequest(s.model.Schema, r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// eval abstracts the evaluation source: a posted relation (batch) or
	// a registered dataset's conditioned snapshot. Both run the same
	// plan/executor pipeline and stream the same records.
	var eval func(progress repro.QueryProgressFunc) (*repro.QueryResult, error)
	if id := r.URL.Query().Get("dataset"); id != "" {
		ds, ok := s.eng.Dataset(id)
		if !ok {
			s.failed.Add(1)
			http.Error(w, "unknown dataset "+id, http.StatusNotFound)
			return
		}
		if ds.JoinInput() {
			s.failed.Add(1)
			http.Error(w, "dataset "+id+" is a join input (schema=own): bind it in an sql= query instead", http.StatusBadRequest)
			return
		}
		if r.URL.Query().Get("watch") == "1" {
			s.watchQuery(w, r, ds, q, pools, d)
			return
		}
		snap, err := ds.Snapshot(r.Context())
		if err != nil {
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		eval = func(progress repro.QueryProgressFunc) (*repro.QueryResult, error) {
			ctx, cancel := withBudget(r.Context(), d)
			defer cancel()
			return s.eng.QuerySnapshot(ctx, snap, q, pools, progress)
		}
	} else {
		if r.URL.Query().Get("watch") == "1" {
			s.failed.Add(1)
			http.Error(w, "watch=1 requires dataset=<id>: only registered datasets receive evidence", http.StatusBadRequest)
			return
		}
		rel, err := repro.ReadCSVInSchema(r.Body, s.model.Schema)
		if err != nil {
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		eval = func(progress repro.QueryProgressFunc) (*repro.QueryResult, error) {
			ctx, cancel := withBudget(r.Context(), d)
			defer cancel()
			return s.eng.QueryStream(ctx, rel, q, pools, progress)
		}
	}
	head := map[string]any{"kind": "query", "op": q.Op().String(), "query": q.String()}
	if q.Op() == repro.QueryTopK || q.Op() == repro.QueryGroupBy {
		s.streamQuery(w, r, q, s.model.Schema, head, eval)
		return
	}
	res, err := eval(nil)
	if err != nil {
		s.failed.Add(1)
		// Unlike /derive, nothing has been streamed yet, so the failure
		// can carry a real status code.
		var mismatch *repro.SchemaMismatchError
		if errors.As(err, &mismatch) {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.noteBudget(res.Degraded)
	w.Header().Set("Content-Type", "application/x-ndjson")
	ew := &errWriter{w: w}
	enc := json.NewEncoder(ew)
	enc.Encode(head)
	writeScalar(enc, q, res)
	s.writeSummary(enc, r, res)
	if ew.err != nil {
		// The client went away mid-stream: the response is truncated, so
		// the request did not succeed.
		s.failed.Add(1)
	}
}

// writeScalar emits the single result record of a count or exists
// evaluation. A dissociated exists answer (unsafe SPJ plan) carries the
// flag and the sound [lo, hi] interval around the intensional mass;
// extensional queries never set either. A degraded answer (deadline
// budget ran out) is flagged degraded:true with the sound [lo, hi]
// bracket around the exact value — the point answer is its lower side.
func writeScalar(enc *json.Encoder, q *repro.CompiledQuery, res *repro.QueryResult) {
	switch q.Op() {
	case repro.QueryCount:
		var rec map[string]any
		if q.MinProb() > 0 {
			rec = map[string]any{"kind": "count", "count": res.Count, "minprob": q.MinProb()}
		} else {
			rec = map[string]any{"kind": "count", "expected": res.Expected}
		}
		if res.Degraded {
			rec["degraded"] = true
			if res.Bounds != nil {
				rec["lo"], rec["hi"] = res.Bounds.Lo, res.Bounds.Hi
			}
		}
		enc.Encode(rec)
	case repro.QueryExists:
		rec := map[string]any{
			"kind": "exists", "exists": res.Exists, "p": res.Prob, "early_stop": res.EarlyStop,
		}
		if res.Dissociated {
			rec["dissociated"] = true
		}
		if res.Degraded {
			rec["degraded"] = true
		}
		if res.Bounds != nil {
			rec["lo"], rec["hi"] = res.Bounds.Lo, res.Bounds.Hi
		}
		enc.Encode(rec)
	}
}

// handleSQLQuery serves POST /query with an sql= statement — the
// intensional multi-relation path. Each relation the statement names
// resolves from a multipart file field with that name (a CSV under its
// own header), then from a <name>=<dataset id> parameter naming a
// registered dataset. The statement binds to the same operator
// parameters as extensional queries, compiles through CompileSPJ
// (join-chain fold with per-row lineage, safety analysis), and streams
// the same record kinds; the summary carries the join order and safety
// verdict, and unsafe exists answers are flagged dissociated with their
// sound interval.
func (s *server) handleSQLQuery(w http.ResponseWriter, r *http.Request, sqlText string, pools repro.Pools, d time.Duration) {
	if r.URL.Query().Get("watch") == "1" {
		s.failed.Add(1)
		http.Error(w, "watch=1 applies to single-relation dataset queries, not sql statements", http.StatusBadRequest)
		return
	}
	if r.URL.Query().Get("dataset") != "" {
		s.failed.Add(1)
		http.Error(w, "sql statements name their inputs (<relation>=<dataset id>); dataset= applies to single-relation queries", http.StatusBadRequest)
		return
	}
	stmt, err := repro.ParseSPJ(sqlText)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := specFromRequest(r)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	inputs := make(map[string]*repro.Relation)
	for _, name := range stmt.Relations() {
		if _, ok := inputs[name]; ok {
			continue
		}
		rel, err := s.resolveSQLInput(r, name)
		if err != nil {
			s.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		inputs[name] = rel
	}
	spjSpec, err := stmt.Bind(inputs, spec, r.FormValue("keepkeys") == "1")
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spj, err := repro.CompileSPJ(s.model.Schema, spjSpec)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q := spj.Query()
	// Projected queries answer in the projection's schema, not the
	// model's; rows must be labeled accordingly.
	schema := s.model.Schema
	if as := spj.AnswerSchema(); as != nil {
		schema = as
	}
	head := map[string]any{
		"kind": "query", "op": q.Op().String(), "query": q.String(),
		"sql": sqlText, "safe": spj.Safe(),
	}
	eval := func(progress repro.QueryProgressFunc) (*repro.QueryResult, error) {
		ctx, cancel := withBudget(r.Context(), d)
		defer cancel()
		return s.eng.QuerySPJStream(ctx, spj, pools, progress)
	}
	if q.Op() == repro.QueryTopK || q.Op() == repro.QueryGroupBy {
		s.streamQuery(w, r, q, schema, head, eval)
		return
	}
	res, err := eval(nil)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.noteBudget(res.Degraded)
	w.Header().Set("Content-Type", "application/x-ndjson")
	ew := &errWriter{w: w}
	enc := json.NewEncoder(ew)
	enc.Encode(head)
	writeScalar(enc, q, res)
	s.writeSummary(enc, r, res)
	if ew.err != nil {
		s.failed.Add(1)
	}
}

// resolveSQLInput resolves one statement relation name against the
// request: a multipart file field with that name takes precedence, then
// a <name>=<id> parameter naming a registered dataset (join-input or
// model-schema), whose relation is used by reference.
func (s *server) resolveSQLInput(r *http.Request, name string) (*repro.Relation, error) {
	if r.MultipartForm != nil {
		if fhs := r.MultipartForm.File[name]; len(fhs) > 0 {
			f, err := fhs[0].Open()
			if err != nil {
				return nil, fmt.Errorf("relation %s: %w", name, err)
			}
			defer f.Close()
			rel, err := repro.ReadCSV(f)
			if err != nil {
				return nil, fmt.Errorf("relation %s: %w", name, err)
			}
			return rel, nil
		}
	}
	if id := r.FormValue(name); id != "" {
		ds, ok := s.eng.Dataset(id)
		if !ok {
			return nil, fmt.Errorf("relation %s: unknown dataset %s", name, id)
		}
		return ds.Relation(), nil
	}
	return nil, fmt.Errorf("relation %s has no input: attach a multipart CSV file field %q or name a registered dataset (%s=<id>)", name, name, name)
}

// streamQuery runs a topk or groupby evaluation with incremental NDJSON
// output: partial records as blocks resolve, final records once the
// evaluation settles, then the summary. Each progress callback flushes
// what it wrote; the handler's return sends the rest. The stream is
// already under way when inference runs, so evaluation errors append a
// terminal error record instead of a status code; a disconnected client
// aborts the evaluation through the progress callback.
func (s *server) streamQuery(w http.ResponseWriter, r *http.Request, q *repro.CompiledQuery,
	schema *repro.Schema, head map[string]any,
	eval func(repro.QueryProgressFunc) (*repro.QueryResult, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	ew := &errWriter{w: w}
	enc := json.NewEncoder(ew)
	enc.Encode(head)

	var (
		lastRows   []repro.QueryRow
		lastGroups []repro.QueryGroup
	)
	progress := func(res *repro.QueryResult) error {
		switch q.Op() {
		case repro.QueryTopK:
			if slicesEqualRows(res.Rows, lastRows) {
				break
			}
			lastRows = append(lastRows[:0], res.Rows...)
			for rank, row := range res.Rows {
				enc.Encode(map[string]any{
					"kind": "row", "partial": true, "rank": rank, "index": row.Index,
					"values": labelsIn(schema, row.Tuple), "p": row.Prob, "certain": row.Certain,
				})
			}
		case repro.QueryGroupBy:
			for i, g := range res.Groups {
				if i < len(lastGroups) && g == lastGroups[i] {
					continue
				}
				enc.Encode(map[string]any{
					"kind": "group", "partial": true, "value": g.Label,
					"expected": g.Expected, "variance": g.Variance,
				})
			}
			lastGroups = append(lastGroups[:0], res.Groups...)
		}
		ew.flush()
		return ew.err
	}
	res, err := eval(progress)
	if err != nil {
		s.failed.Add(1)
		enc.Encode(errRecord(r, err))
		return
	}
	s.noteBudget(res.Degraded)
	switch q.Op() {
	case repro.QueryTopK:
		for rank, row := range res.Rows {
			enc.Encode(map[string]any{
				"kind": "row", "final": true, "rank": rank, "index": row.Index,
				"values": labelsIn(schema, row.Tuple), "p": row.Prob, "certain": row.Certain,
			})
		}
	case repro.QueryGroupBy:
		for _, g := range res.Groups {
			rec := map[string]any{
				"kind": "group", "final": true, "value": g.Label,
				"expected": g.Expected, "variance": g.Variance,
			}
			if res.Degraded {
				// Degraded buckets bracket the exact expectation.
				rec["degraded"], rec["lo"], rec["hi"] = true, g.Lo, g.Hi
			}
			enc.Encode(rec)
		}
	}
	s.writeSummary(enc, r, res)
	if ew.err != nil {
		s.failed.Add(1)
	}
}

// errRecord is the terminal NDJSON error record, stamped with the
// request id so mid-stream failures correlate with the request log.
func errRecord(r *http.Request, err error) map[string]string {
	return map[string]string{
		"kind": "error", "error": err.Error(), "request_id": obs.RequestIDFrom(r.Context()),
	}
}

// slicesEqualRows reports whether two row snapshots are identical, so
// the streamer only re-emits partial rows that actually moved.
func slicesEqualRows(a, b []repro.QueryRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Prob != b[i].Prob || a[i].Index != b[i].Index || a[i].Certain != b[i].Certain ||
			!a[i].Tuple.Equal(b[i].Tuple) {
			return false
		}
	}
	return true
}

// handleRegisterDataset registers the posted CSV relation as a live
// dataset and returns its handle id. With schema=own the CSV keeps its
// own header and inferred domains and registers as a join-input dataset,
// usable only as a named input of sql= queries. Registration itself runs
// no inference, so it bypasses admission control.
func (s *server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var (
		rel        *repro.Relation
		ds         *repro.Dataset
		err        error
		schemaMode = cmp.Or(r.URL.Query().Get("schema"), "model")
	)
	switch schemaMode {
	case "model":
		if rel, err = repro.ReadCSVInSchema(r.Body, s.model.Schema); err == nil {
			ds, err = s.eng.RegisterDataset(rel)
		}
	case "own":
		if rel, err = repro.ReadCSV(r.Body); err == nil {
			ds, err = s.eng.RegisterJoinInput(rel)
		}
	default:
		err = fmt.Errorf("query parameter schema must be model or own, got %q", schemaMode)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"kind": "dataset", "id": ds.ID(), "tuples": len(rel.Tuples), "schema": schemaMode,
	})
}

// handleDropDataset unregisters a dataset: its watch streams end with
// an "end" record and its conditioned cache entries are invalidated.
func (s *server) handleDropDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.eng.DropDataset(id) {
		http.Error(w, "unknown dataset "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"kind": "dropped", "id": id})
}

// observeDelta is one wire observation resolved against the schema:
// tuple index, attribute index, domain code.
type observeDelta struct {
	Index, Attr, Val int
}

// parseObserveRequest decodes and resolves a POST /observe body against
// the schema: attributes by name, values by domain label. It validates
// shape and vocabulary only — tuple-index range and evidence
// consistency are the dataset's to judge.
func parseObserveRequest(schema *repro.Schema, body io.Reader) (string, []observeDelta, error) {
	var req struct {
		Dataset      string `json:"dataset"`
		Observations []struct {
			Index int    `json:"index"`
			Attr  string `json:"attr"`
			Value string `json:"value"`
		} `json:"observations"`
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, fmt.Errorf("observe: decoding body: %w", err)
	}
	if req.Dataset == "" {
		return "", nil, fmt.Errorf("observe: missing dataset id")
	}
	if len(req.Observations) == 0 {
		return "", nil, fmt.Errorf("observe: no observations")
	}
	deltas := make([]observeDelta, 0, len(req.Observations))
	for i, o := range req.Observations {
		attr := schema.AttrIndex(o.Attr)
		if attr < 0 {
			return "", nil, fmt.Errorf("observe: observation %d: unknown attribute %q", i, o.Attr)
		}
		val, err := schema.ValueCode(attr, o.Value)
		if err != nil {
			return "", nil, fmt.Errorf("observe: observation %d: %w", i, err)
		}
		if o.Index < 0 {
			return "", nil, fmt.Errorf("observe: observation %d: negative tuple index %d", i, o.Index)
		}
		deltas = append(deltas, observeDelta{Index: o.Index, Attr: attr, Val: val})
	}
	return req.Dataset, deltas, nil
}

// handleObserve applies a batch of evidence deltas to a registered
// dataset, in order. Each delta conditions the tuple's block exactly
// and invalidates exactly the superseded conditioned cache entry. A
// delta the evidence rules out (conflict or zero remaining mass) stops
// the batch with 409, reporting how many deltas applied before it —
// those stay applied; deltas are not a transaction.
func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	id, deltas, err := parseObserveRequest(s.model.Schema, r.Body)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ds, ok := s.eng.Dataset(id)
	if !ok {
		s.failed.Add(1)
		http.Error(w, "unknown dataset "+id, http.StatusNotFound)
		return
	}
	n := len(ds.Relation().Tuples)
	results := make([]map[string]any, 0, len(deltas))
	var version uint64
	for applied, d := range deltas {
		if d.Index >= n {
			s.failed.Add(1)
			http.Error(w, fmt.Sprintf("observe: tuple index %d out of range [0, %d)", d.Index, n),
				http.StatusBadRequest)
			return
		}
		res, err := ds.Observe(r.Context(), d.Index, d.Attr, d.Val)
		if err != nil {
			// The evidence is inconsistent with the block's remaining mass
			// (or the dataset was dropped mid-batch): a conflict, not a bad
			// request shape.
			s.failed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			json.NewEncoder(w).Encode(map[string]any{
				"kind": "error", "error": err.Error(), "applied": applied,
			})
			return
		}
		version = res.Version
		results = append(results, map[string]any{
			"index": res.Index, "noop": res.Noop, "collapsed": res.Collapsed,
			"alternatives": res.Alternatives, "epoch": res.Epoch,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"kind": "observed", "dataset": id, "applied": len(results),
		"version": version, "results": results,
	})
}

// watchQuery serves /query?dataset=<id>&watch=1: a long-lived
// subscription that evaluates the query over the dataset's conditioned
// snapshot, emits the full result once, then re-evaluates after every
// observation and re-emits ONLY the records the delta actually changed,
// marked "partial":true and stamped with the dataset version. The
// stream ends when the client disconnects or the dataset is dropped
// (an "end" record). Observation signals are coalesced: a burst of
// deltas may surface as one re-evaluation of the latest snapshot. The
// head and every diff are flushed as soon as they are written, since the
// stream then waits for the next observation.
func (s *server) watchQuery(w http.ResponseWriter, r *http.Request,
	ds *repro.Dataset, q *repro.CompiledQuery, pools repro.Pools, d time.Duration) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	ew := &errWriter{w: w}
	enc := json.NewEncoder(ew)
	enc.Encode(map[string]any{
		"kind": "query", "op": q.Op().String(), "query": q.String(),
		"dataset": ds.ID(), "watch": true,
	})
	ew.flush()

	var st watchState
	// The deadline budget applies per re-evaluation, not to the stream:
	// a subscription lives until disconnect, drop, or drain, but each
	// answer it pushes is bounded.
	reval := func() error {
		ctx, cancel := withBudget(r.Context(), d)
		defer cancel()
		snap, err := ds.Snapshot(ctx)
		if err != nil {
			return err
		}
		res, err := s.eng.QuerySnapshot(ctx, snap, q, pools, nil)
		if err != nil {
			return err
		}
		s.noteBudget(res.Degraded)
		s.emitWatchDiff(enc, q, res, snap.Version, &st)
		ew.flush()
		return ew.err
	}
	if err := reval(); err != nil {
		s.failed.Add(1)
		enc.Encode(errRecord(r, err))
		return
	}
	ch, cancel := ds.Subscribe()
	defer cancel()
	// An observe between the first evaluation and the subscription would
	// be missed; re-check once now that the signal channel is live.
	if err := reval(); err != nil {
		s.failed.Add(1)
		enc.Encode(errRecord(r, err))
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return // client disconnected; nothing left to tell it
		case <-s.drain:
			// Server draining: end the subscription cleanly so Shutdown can
			// finish. The last emitted results stand.
			enc.Encode(map[string]any{"kind": "end", "reason": "server draining", "dataset": ds.ID()})
			return
		case <-ds.Done():
			enc.Encode(map[string]any{"kind": "end", "reason": "dataset dropped", "dataset": ds.ID()})
			return
		case <-ch:
			if err := reval(); err != nil {
				s.failed.Add(1)
				enc.Encode(errRecord(r, err))
				return
			}
		}
	}
}

// watchState is the last emitted result of a watch stream, diffed
// against each re-evaluation so unchanged records are never re-sent.
type watchState struct {
	init     bool
	count    float64 // Expected, or Count when thresholded
	exists   bool
	prob     float64
	earlyCut bool
	rows     []repro.QueryRow
	groups   []repro.QueryGroup
}

// emitWatchDiff emits the result records of res that differ from the
// previous evaluation in st, marked partial and stamped with the
// dataset version, then updates st. The first call emits everything.
func (s *server) emitWatchDiff(enc *json.Encoder, q *repro.CompiledQuery,
	res *repro.QueryResult, version uint64, st *watchState) {
	first := !st.init
	st.init = true
	switch q.Op() {
	case repro.QueryCount:
		val := res.Expected
		if q.MinProb() > 0 {
			val = float64(res.Count)
		}
		if first || val != st.count {
			st.count = val
			rec := map[string]any{"kind": "count", "partial": true, "version": version}
			if q.MinProb() > 0 {
				rec["count"] = res.Count
				rec["minprob"] = q.MinProb()
			} else {
				rec["expected"] = res.Expected
			}
			enc.Encode(rec)
		}
	case repro.QueryExists:
		if first || res.Exists != st.exists || res.Prob != st.prob || res.EarlyStop != st.earlyCut {
			st.exists, st.prob, st.earlyCut = res.Exists, res.Prob, res.EarlyStop
			enc.Encode(map[string]any{
				"kind": "exists", "partial": true, "version": version,
				"exists": res.Exists, "p": res.Prob, "early_stop": res.EarlyStop,
			})
		}
	case repro.QueryTopK:
		for rank, row := range res.Rows {
			if !first && rank < len(st.rows) {
				p := st.rows[rank]
				if p.Prob == row.Prob && p.Index == row.Index && p.Certain == row.Certain &&
					p.Tuple.Equal(row.Tuple) {
					continue
				}
			}
			enc.Encode(map[string]any{
				"kind": "row", "partial": true, "version": version, "rank": rank,
				"index": row.Index, "values": labelsIn(s.model.Schema, row.Tuple),
				"p": row.Prob, "certain": row.Certain,
			})
		}
		// Evidence can disqualify rows: retract ranks past the new end.
		for rank := len(res.Rows); rank < len(st.rows); rank++ {
			enc.Encode(map[string]any{
				"kind": "row", "partial": true, "version": version, "rank": rank, "removed": true,
			})
		}
		st.rows = append(st.rows[:0], res.Rows...)
	case repro.QueryGroupBy:
		// Groups cover the grouping attribute's domain in order, so the
		// diff is positional, like the batch streamer's.
		for i, g := range res.Groups {
			if !first && i < len(st.groups) && g == st.groups[i] {
				continue
			}
			enc.Encode(map[string]any{
				"kind": "group", "partial": true, "version": version,
				"value": g.Label, "expected": g.Expected, "variance": g.Variance,
			})
		}
		st.groups = append(st.groups[:0], res.Groups...)
	}
}

// writeSummary emits the terminal summary record: pruning counters,
// bound usage, and the chosen plan. SPJ evaluations add the join order,
// conditions, and safety verdict, plus the dissociation flag and bounds
// when the answer was computed over a dissociated lineage. With
// explain=analyze (or trace=1) the plan block carries the measured
// timing section, and a trace on the request context is flushed as a
// {"kind":"trace"} record after the summary.
func (s *server) writeSummary(enc *json.Encoder, r *http.Request, res *repro.QueryResult) {
	c := res.Counters
	summary := map[string]any{
		"kind": "summary", "scanned": c.Scanned, "pruned": c.Pruned,
		"bounded": c.Bounded, "derived": c.Derived,
		"bound_refuted": c.BoundRefutes, "bound_width": c.BoundWidth,
		"request_id": obs.RequestIDFrom(r.Context()),
	}
	if res.Dissociated {
		summary["dissociated"] = true
	}
	if res.Degraded {
		summary["degraded"] = true
		summary["degraded_tuples"] = res.DegradedTuples
	}
	if res.Bounds != nil {
		summary["bounds"] = map[string]float64{"lo": res.Bounds.Lo, "hi": res.Bounds.Hi}
	}
	if p := res.Plan; p != nil {
		plan := map[string]any{
			"pred_order":  p.PredOrder,
			"selectivity": p.Selectivity,
			"tiers": map[string]int{
				"refuted": p.Refuted, "certain": p.Certain, "single_missing": p.SingleMissing,
				"bounded": p.Bounded, "derive": p.Derive, "observed": p.Observed,
			},
			"bounds_used": p.BoundsUsed,
		}
		if a := p.Adaptive; a != nil {
			adaptive := map[string]any{
				"envelope_hits":   a.EnvelopeHits,
				"envelope_misses": a.EnvelopeMisses,
				"replans":         a.Replans,
			}
			if len(a.ReplanCut) > 0 {
				adaptive["replan_cut"] = a.ReplanCut
			}
			plan["adaptive"] = adaptive
		}
		if p.Timing != nil {
			// Explain-analyze: measured plan/wall durations and per-tier
			// resolution times (tuples + duration_ms each).
			plan["timing"] = p.Timing
		}
		if j := p.Join; j != nil {
			join := map[string]any{
				"relations": j.Relations, "conditions": j.Conditions,
				"safe": j.Safe, "shared_uncertain": j.SharedUncertain, "verdict": j.Verdict,
			}
			if len(j.Projection) > 0 {
				join["projection"] = j.Projection
			}
			plan["join"] = join
		}
		summary["plan"] = plan
	}
	enc.Encode(summary)
	if tr := repro.TraceFrom(r.Context()); tr != nil {
		enc.Encode(map[string]any{
			"kind": "trace", "request_id": obs.RequestIDFrom(r.Context()), "spans": tr.Spans(),
		})
	}
}

// errWriter records the first write error and drops everything after it,
// so a disconnected client stops the stream instead of being encoded to
// in vain. It writes straight to the ResponseWriter, whose buffer net/http
// sends when it fills or when the handler returns; flush sends it
// earlier, where a record would otherwise wait while the server works.
type errWriter struct {
	w   http.ResponseWriter
	err error
}

// flush sends what the ResponseWriter has buffered to the client.
func (e *errWriter) flush() {
	if f, ok := e.w.(http.Flusher); ok && e.err == nil {
		f.Flush()
	}
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// labelsIn renders a complete tuple's value codes as domain labels of
// the given schema — the model's for extensional rows, the answer
// schema for projected SPJ rows.
func labelsIn(schema *repro.Schema, t repro.Tuple) []string {
	out := make([]string, len(t))
	for a, v := range t {
		out[a] = schema.Attrs[a].Domain[v]
	}
	return out
}

// specFromRequest reads the operator parameters shared by extensional
// and intensional queries — op, where, groupby, k, minprob — into an
// uncompiled spec.
func specFromRequest(r *http.Request) (repro.QuerySpec, error) {
	vals := r.URL.Query()
	op, err := repro.ParseQueryOp(cmp.Or(vals.Get("op"), "count"))
	if err != nil {
		return repro.QuerySpec{}, err
	}
	spec := repro.QuerySpec{
		Op:      op,
		Where:   vals.Get("where"),
		GroupBy: vals.Get("groupby"),
	}
	if v := vals.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			// k >= 1 keeps served topk results (and server memory) bounded;
			// the unbounded k <= 0 form stays a library/CLI affordance.
			return spec, fmt.Errorf("query parameter k must be a positive integer, got %q", v)
		}
		spec.K = n
	} else if op == repro.QueryTopK {
		spec.K = 10
	}
	if v := vals.Get("minprob"); v != "" {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return spec, fmt.Errorf("query parameter minprob must be a number, got %q", v)
		}
		spec.MinProb = p
	}
	// explain=analyze turns on explain-analyze: the evaluation measures
	// its per-tier resolution durations and the summary's plan block
	// carries them. Observation only — answers never change.
	spec.Analyze = vals.Get("explain") == "analyze"
	return spec, nil
}

// queryFromRequest builds a compiled single-relation query from the
// request's URL parameters.
func queryFromRequest(schema *repro.Schema, r *http.Request) (*repro.CompiledQuery, error) {
	spec, err := specFromRequest(r)
	if err != nil {
		return nil, err
	}
	return repro.CompileQuery(schema, spec)
}

// statsResponse is the /stats payload: the engine's counters, exactly
// as EngineStats carries them (the same snapshot /metrics exports as
// mrsl_engine_* gauges), plus serving-level bookkeeping.
type statsResponse struct {
	Engine repro.EngineStats `json:"engine"`
	// Requests counts offered inference requests: accepted + rejected +
	// shed.
	Requests int64 `json:"requests"`
	Accepted int64 `json:"accepted"`
	Failed   int64 `json:"failed"`
	Rejected int64 `json:"rejected"`
	// Shed counts requests turned away with 503: server draining, or
	// sustained deadline misses past -shed-after-misses.
	Shed int64 `json:"shed"`
	// Draining reports that SIGTERM flipped the server into graceful
	// drain: no new inference requests, watch streams ended.
	Draining bool `json:"draining"`
	// ServerPanics counts handler panics converted into error responses
	// by the serving layer (the engine's own recoveries are
	// Engine.PanicsRecovered).
	ServerPanics  int64   `json:"server_panics"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Revision is the VCS revision baked into the binary ("unknown"
	// outside a VCS build); GoVersion the toolchain that built it.
	Revision  string `json:"revision"`
	GoVersion string `json:"go_version"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsResponse{
		Engine:        s.eng.Stats(),
		Requests:      s.requests.Load(),
		Accepted:      s.accepted.Load(),
		Failed:        s.failed.Load(),
		Rejected:      s.rejected.Load(),
		Shed:          s.shed.Load(),
		Draining:      s.draining.Load(),
		ServerPanics:  s.panics.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Revision:      obs.BuildRevision(),
		GoVersion:     obs.GoVersion(),
	})
}

// handleHealthz is the liveness/readiness probe: 200 while serving, 503
// once the server is draining so load balancers stop routing to it.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"draining\"}\n")
		return
	}
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// poolsFromQuery reads optional per-request pool overrides; pool sizes
// affect scheduling only, never the derived stream.
func poolsFromQuery(r *http.Request) (repro.Pools, error) {
	var p repro.Pools
	q := r.URL.Query()
	for _, f := range []struct {
		name string
		dst  *int
	}{{"voteworkers", &p.VoteWorkers}, {"gibbsworkers", &p.GibbsWorkers}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("query parameter %s must be a non-negative integer, got %q", f.name, v)
		}
		*f.dst = n
	}
	return p, nil
}
