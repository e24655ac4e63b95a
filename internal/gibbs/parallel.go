package gibbs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/vote"
)

// ParallelTupleAtATime runs an independent chain for every distinct tuple
// of the workload across a pool of goroutines. Each tuple's chain draws
// from its own RNG, deterministically derived from the sampler seed and
// the tuple's content (not its position), so the result is bit-identical
// for any worker count — and a tuple's estimate does not depend on which
// other tuples share the workload. workers <= 0 selects GOMAXPROCS.
//
// Without a shared Config.Cache, each chain memoizes its local CPDs in a
// private map; with one, all chains share the engine-level bounded cache,
// so overlapping evidence states are voted once across the whole pool.
// Either way the memo holds value-deterministic entries, so the estimates
// are identical.
func (s *Sampler) ParallelTupleAtATime(workload []relation.Tuple, workers int) (*Result, error) {
	distinct, err := distinctIncomplete(workload)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}

	res := &Result{Tuples: distinct, Dists: make([]*dist.Joint, len(distinct))}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		points   int
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Per-item panic boundary: a panicking chain fails the batch
				// with a typed error instead of crashing the process, and the
				// worker keeps draining so the dispatcher never deadlocks.
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if firstErr == nil {
								firstErr = fmt.Errorf("recovered panic in chain worker: %v", r)
							}
							mu.Unlock()
						}
					}()
					j, pts, err := InferIndependent(s.model, s.cfg, distinct[i])
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					res.Dists[i] = j
					points += pts
					mu.Unlock()
				}()
			}
		}()
	}
	for i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("gibbs: parallel inference: %w", firstErr)
	}
	res.PointsSampled = points
	s.PointsSampled += points
	return res, nil
}

// InferIndependent runs the content-seeded independent chain for one
// incomplete tuple: exactly the estimator ParallelTupleAtATime applies to
// each distinct workload tuple, exposed as a single-tuple entry point.
// Infer, the serving engine's per-block estimator, falls back to this
// chain for the tuples its exact tier does not solve. The chain's RNG is
// derived from cfg.Seed and the tuple's canonical evidence key, so the
// returned joint is bit-identical to the batch path no matter when,
// where, or alongside which other tuples it is computed. It creates a
// private sub-sampler per call and shares no state, so it is safe to
// call from any number of goroutines. The int result is the number of
// points sampled, including burn-in.
func InferIndependent(m *core.Model, cfg Config, t relation.Tuple) (*dist.Joint, int, error) {
	faultinject.Fire("gibbs.chain") // forced panic: exercises chain-worker recovery
	faultinject.Fire("gibbs.sweep") // delayed sweep: stretches chain wall-clock
	if err := checkInfer(m, cfg, t); err != nil {
		return nil, 0, err
	}
	return runChain(m, cfg, t)
}

// runChain is InferIndependent after its fault points and argument checks.
func runChain(m *core.Model, cfg Config, t relation.Tuple) (*dist.Joint, int, error) {
	subCfg := cfg // keep the shared CPD cache, re-derive only the seed
	subCfg.Seed = tupleSeed(cfg.Seed, t)
	// The RNG and vote scratch are pooled: Seed deterministically resets
	// the full generator state, and the scratch carries no cross-call
	// meaning, so reuse changes nothing but the allocation count. The
	// private CPD memo of a chain without a shared cache is NOT pooled —
	// its entries are model-specific.
	st := indepPool.Get().(*indepState)
	defer indepPool.Put(st)
	st.rng.Seed(subCfg.Seed)
	sub := &Sampler{model: m, cfg: subCfg, rng: st.rng, scratch: st.scratch}
	j, err := sub.InferTuple(t)
	return j, sub.PointsSampled, err
}

// indepState bundles the pooled per-call resources of InferIndependent
// and of a family walk (eachCPD): the free attributes, the context
// odometer, the completed state and its CPD key.
type indepState struct {
	rng     *rand.Rand
	scratch *vote.Scratch
	free    []int
	ctx     []int
	state   relation.Tuple
	key     []byte
}

var indepPool = sync.Pool{New: func() any {
	return &indepState{rng: rand.New(rand.NewSource(0)), scratch: new(vote.Scratch)}
}}

// tupleSeed derives a well-separated per-tuple seed from the sampler seed
// and the tuple's canonical evidence key (FNV-1a over the key bytes, then
// the splitmix64 finalizer). Keying by content rather than workload
// position keeps a tuple's chain identical no matter which other tuples
// are inferred alongside it.
func tupleSeed(seed int64, t relation.Tuple) int64 {
	h := fnv64(t.AppendKey(nil))
	z := uint64(seed) + (h|1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// fnv64 is FNV-1a over b, shared by per-tuple seeding and CPD-cache
// sharding.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211 // FNV prime
	}
	return h
}
