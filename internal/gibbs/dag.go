package gibbs

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/relation"
)

// TupleDAG is the subsumption DAG over a workload's distinct incomplete
// tuples (Section V-B, Fig. 3). Node i points at the tuples it subsumes —
// tuples with strictly more evidence that agree with it — so samples drawn
// for a node can be shared downward by rejection filtering.
type TupleDAG struct {
	// Tuples are the distinct incomplete tuples.
	Tuples []relation.Tuple
	// Subsumees[i] lists indices j with Tuples[j] ≺ Tuples[i] (transitive,
	// not just immediate children).
	Subsumees [][]int
	// Subsumers[i] lists indices j with Tuples[i] ≺ Tuples[j].
	Subsumers [][]int
	// Roots are indices of tuples not subsumed by any other tuple.
	Roots []int
}

// BuildTupleDAG constructs the subsumption DAG for a workload
// (Algorithm 3's ComputeTupleDAG).
func BuildTupleDAG(workload []relation.Tuple) (*TupleDAG, error) {
	distinct, err := distinctIncomplete(workload)
	if err != nil {
		return nil, err
	}
	n := len(distinct)
	d := &TupleDAG{
		Tuples:    distinct,
		Subsumees: make([][]int, n),
		Subsumers: make([][]int, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && distinct[i].Subsumes(distinct[j]) {
				d.Subsumees[i] = append(d.Subsumees[i], j)
				d.Subsumers[j] = append(d.Subsumers[j], i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if len(d.Subsumers[i]) == 0 {
			d.Roots = append(d.Roots, i)
		}
	}
	return d, nil
}

// dagNode is the sampling state of one tuple during Algorithm 3.
type dagNode struct {
	acc *accumulator
	// raw holds the node's own recorded draws (full states restricted to
	// its missing attributes' values are recoverable from the full state),
	// kept while active so they can be shared with subsumees on completion.
	raw []relation.Tuple
	// chain is non-nil once the node has started sampling (initialized =
	// burn-in done).
	chain     *chain
	samples   int // recorded samples accumulated (own + shared)
	completed bool
}

// TupleDAGRun executes Algorithm 3 (workload-driven sampling): roots are
// visited round-robin, one recorded sweep per visit after burn-in; when a
// root reaches N samples its draws are shared with every subsumee (only
// draws matching the subsumee's evidence count), and subsumees with no
// remaining active subsumer are promoted to roots to top up their sample
// count with their own chain.
func (s *Sampler) TupleDAGRun(workload []relation.Tuple) (*Result, error) {
	dag, err := BuildTupleDAG(workload)
	if err != nil {
		return nil, err
	}
	before := s.PointsSampled
	n := len(dag.Tuples)
	nodes := make([]*dagNode, n)
	for i, t := range dag.Tuples {
		acc, err := s.newAccumulator(t)
		if err != nil {
			return nil, err
		}
		nodes[i] = &dagNode{acc: acc}
	}

	active := append([]int(nil), dag.Roots...)
	inActive := make([]bool, n)
	for _, r := range active {
		inActive[r] = true
	}
	N := s.cfg.Samples

	completeNode := func(i int) { nodes[i].completed = true }

	// Round-robin cursor over active roots.
	cur := 0
	for len(active) > 0 {
		if cur >= len(active) {
			cur = 0
		}
		r := active[cur]
		node := nodes[r]
		if node.chain == nil {
			c, err := s.newChain(dag.Tuples[r])
			if err != nil {
				return nil, err
			}
			node.chain = c
			for b := 0; b < s.cfg.burnIn(); b++ { // run burn-in for r
				if err := s.sweep(c); err != nil {
					return nil, err
				}
			}
		}
		if err := s.sweep(node.chain); err != nil {
			return nil, err
		}
		node.acc.record(node.chain.state)
		node.raw = append(node.raw, node.chain.state.Clone())
		node.samples++
		if node.samples < N {
			cur++
			continue
		}

		// Finished sampling for r: retire it, share its draws, promote
		// subsumees that are now unblocked. Sharing and promotion are two
		// passes: completing one subsumee via sharing can unblock another
		// subsumee that the loop already visited.
		active = append(active[:cur], active[cur+1:]...)
		inActive[r] = false
		completeNode(r)
		for _, si := range dag.Subsumees[r] {
			sn := nodes[si]
			if sn.completed {
				continue
			}
			shareSamples(dag.Tuples[si], node.raw, sn)
			if sn.samples >= N {
				completeNode(si)
			}
		}
		for _, si := range dag.Subsumees[r] {
			sn := nodes[si]
			if sn.completed || inActive[si] {
				continue
			}
			if allSubsumersCompleted(dag, si, nodes) {
				active = append(active, si)
				inActive[si] = true
			}
		}
		node.raw = nil // free retained draws
	}

	res := &Result{
		Tuples:        dag.Tuples,
		Dists:         make([]*dist.Joint, n),
		PointsSampled: s.PointsSampled - before,
	}
	for i, node := range nodes {
		if !node.completed && node.samples == 0 {
			return nil, fmt.Errorf("gibbs: tuple %v received no samples", dag.Tuples[i])
		}
		res.Dists[i] = node.acc.finish()
	}
	return res, nil
}

// shareSamples records every draw of a subsumer that matches the subsumee's
// evidence into the subsumee's accumulator (Algorithm 3's ShareSamples:
// "only samples that match s are recorded").
func shareSamples(subsumee relation.Tuple, raw []relation.Tuple, node *dagNode) {
	for _, state := range raw {
		if subsumee.Matches(state) {
			node.acc.record(state)
			node.samples++
		}
	}
}

// allSubsumersCompleted implements Algorithm 3's IsRoot test: a tuple is
// promoted to root status once every tuple that subsumes it has finished,
// so no further shared samples can arrive for it.
func allSubsumersCompleted(dag *TupleDAG, i int, nodes []*dagNode) bool {
	for _, up := range dag.Subsumers[i] {
		if !nodes[up].completed {
			return false
		}
	}
	return true
}

// AllAtATime runs a single chain over the fully missing tuple t* and
// filters its draws per workload tuple (Section V-A). Because only a
// fraction of draws match any given tuple's evidence, the strategy wastes
// most samples; maxDraws caps the chain length (<= 0 means
// Samples * 1000). Tuples that did not accumulate Samples matching draws
// by the cap still get an estimate from whatever matched, or an error if
// nothing did.
func (s *Sampler) AllAtATime(workload []relation.Tuple, maxDraws int) (*Result, error) {
	distinct, err := distinctIncomplete(workload)
	if err != nil {
		return nil, err
	}
	if maxDraws <= 0 {
		maxDraws = s.cfg.Samples * 1000
	}
	before := s.PointsSampled
	star := relation.NewTuple(s.model.Schema.NumAttrs())
	c, err := s.newChain(star)
	if err != nil {
		return nil, err
	}
	for b := 0; b < s.cfg.burnIn(); b++ {
		if err := s.sweep(c); err != nil {
			return nil, err
		}
	}
	accs := make([]*accumulator, len(distinct))
	counts := make([]int, len(distinct))
	for i, t := range distinct {
		if accs[i], err = s.newAccumulator(t); err != nil {
			return nil, err
		}
	}
	N := s.cfg.Samples
	remaining := len(distinct)
	for draw := 0; draw < maxDraws && remaining > 0; draw++ {
		if err := s.sweep(c); err != nil {
			return nil, err
		}
		for i, t := range distinct {
			if counts[i] >= N || !t.Matches(c.state) {
				continue
			}
			accs[i].record(c.state)
			counts[i]++
			if counts[i] == N {
				remaining--
			}
		}
	}
	res := &Result{
		Tuples:        distinct,
		Dists:         make([]*dist.Joint, len(distinct)),
		PointsSampled: s.PointsSampled - before,
	}
	for i := range distinct {
		if counts[i] == 0 {
			return nil, fmt.Errorf("gibbs: all-at-a-time drew no samples matching %v within %d draws",
				distinct[i], maxDraws)
		}
		res.Dists[i] = accs[i].finish()
	}
	return res, nil
}
