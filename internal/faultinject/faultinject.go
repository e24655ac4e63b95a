// Package faultinject is the chaos-testing switchboard: named injection
// points compiled into the serving stack that stay completely inert — a
// single atomic load — until a fault spec arms them. The spec comes from
// the MRSL_FAULTS environment variable at process start or from
// Configure in tests, so production binaries carry the hooks at zero
// cost and the chaos harness (make chaos-smoke) can force panics, slow
// writes, cache-eviction storms, and scheduling delays deterministically.
//
// Spec syntax: comma-separated directives
//
//	point=kind[:duration]/every
//
// where point names an injection site (derive.vote, derive.chain,
// derive.prefetch, gibbs.chain, gibbs.sweep, sink.write, cache.storm,
// query.replan; derive.chain arrives once per chain),
// kind is one of
//
//	panic  — panic with a faultinject.Panic value at the site
//	sleep  — block the site for duration (e.g. sleep:2ms)
//	fire   — report true to the site, which carries out its own fault
//	         (e.g. cache.storm invalidates every cache entry)
//
// and every fires the directive on each Nth arrival at the point
// (1 = every time). Example:
//
//	MRSL_FAULTS='derive.vote=panic/50,sink.write=sleep:2ms/10,cache.storm=fire/20'
//
// Arrival counting is per point and atomic, so a given traffic mix hits
// faults deterministically up to goroutine interleaving; Arrivals reads
// the count, so a test can check that its traffic reached every point it
// armed.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Panic is the value thrown by panic-kind directives, so recovery sites
// and tests can tell an injected panic from a real one.
type Panic struct {
	// Point is the injection-site name that fired.
	Point string
}

func (p Panic) String() string { return "faultinject: forced panic at " + p.Point }

type directive struct {
	kind  string // "panic", "sleep", "fire"
	dur   time.Duration
	every uint64
	count atomic.Uint64
}

var (
	enabled atomic.Bool
	mu      sync.RWMutex
	points  map[string]*directive
)

func init() {
	if spec := os.Getenv("MRSL_FAULTS"); spec != "" {
		if err := Configure(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultinject: ignoring MRSL_FAULTS: %v\n", err)
		}
	}
}

// Configure arms the injection points named in spec, replacing any
// previous configuration. An empty spec is equivalent to Disable.
func Configure(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disable()
		return nil
	}
	parsed := make(map[string]*directive)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultinject: directive %q is not point=kind[:dur]/every", part)
		}
		action, everyStr, ok := strings.Cut(rest, "/")
		if !ok {
			return fmt.Errorf("faultinject: directive %q misses /every", part)
		}
		every, err := strconv.ParseUint(everyStr, 10, 64)
		if err != nil || every == 0 {
			return fmt.Errorf("faultinject: directive %q has bad period %q", part, everyStr)
		}
		kind, durStr, hasDur := strings.Cut(action, ":")
		d := &directive{kind: kind, every: every}
		switch kind {
		case "panic", "fire":
			if hasDur {
				return fmt.Errorf("faultinject: %s directives take no duration (%q)", kind, part)
			}
		case "sleep":
			if !hasDur {
				return fmt.Errorf("faultinject: sleep directive %q misses :duration", part)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return fmt.Errorf("faultinject: directive %q has bad duration %q", part, durStr)
			}
			d.dur = dur
		default:
			return fmt.Errorf("faultinject: directive %q has unknown kind %q", part, kind)
		}
		parsed[strings.TrimSpace(name)] = d
	}
	mu.Lock()
	points = parsed
	mu.Unlock()
	enabled.Store(len(parsed) > 0)
	return nil
}

// Disable disarms every injection point; Enabled returns false and every
// site is back to a single atomic load.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	points = nil
	mu.Unlock()
}

// Enabled reports whether any injection point is armed. Sites guard on
// it so the disarmed hot path costs one atomic load.
func Enabled() bool { return enabled.Load() }

// Arrivals returns the number of arrivals Fire has recorded at point
// since Configure armed it, 0 for a point that is not armed.
func Arrivals(point string) uint64 {
	mu.RLock()
	d := points[point]
	mu.RUnlock()
	if d == nil {
		return 0
	}
	return d.count.Load()
}

// Fire records one arrival at the named point and carries out its armed
// directive if this arrival is the Nth: panic directives panic with a
// Panic value, sleep directives block for their duration, fire
// directives return true so the site performs its own fault. Unarmed
// points and off-period arrivals return false.
func Fire(point string) bool {
	if !enabled.Load() {
		return false
	}
	mu.RLock()
	d := points[point]
	mu.RUnlock()
	if d == nil {
		return false
	}
	if d.count.Add(1)%d.every != 0 {
		return false
	}
	switch d.kind {
	case "panic":
		panic(Panic{Point: point})
	case "sleep":
		time.Sleep(d.dur)
		return true
	}
	return true
}
