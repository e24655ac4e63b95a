package repro

// BenchmarkWatchFanout is the load generator for the subscription
// delivery histogram (mrsl_watch_notify_seconds): many watchers
// subscribed to one live dataset while observation deltas stream in.
// Each iteration applies one fresh, consistent evidence delta — the
// conditioning work plus the coalesced non-blocking fan-out to every
// subscriber — so its numbers show how delivery latency scales with the
// watcher count.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// watchDelta is one pre-validated observation: evidence the tuple's own
// derived block already carries, so the dataset must accept it.
type watchDelta struct {
	index, attr, val int
}

// watchDeltas derives the fixture relation once through eng (warming its
// caches) and collects one consistent delta per incomplete tuple: the
// first missing attribute set to its top-alternative value.
func watchDeltas(b *testing.B, eng *Engine, rel *Relation) []watchDelta {
	b.Helper()
	var deltas []watchDelta
	err := eng.DeriveStream(rel, func(it DeriveItem) error {
		if it.Certain() {
			return nil
		}
		a := it.Tuple.MissingAttrs()[0]
		deltas = append(deltas, watchDelta{it.Index, a, int(it.Block.Alts[0].Tuple[a])})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(deltas) == 0 {
		b.Fatal("fixture has no incomplete tuples")
	}
	return deltas
}

func BenchmarkWatchFanout(b *testing.B) {
	e := deriveBenchSetup(b)
	ctx := context.Background()
	for _, subs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			eng, err := NewEngine(e.model, DeriveOptions{
				Method:      BestAveraged(),
				Gibbs:       benchGibbs(),
				VoteWorkers: 4,
				Workers:     4,
			})
			if err != nil {
				b.Fatal(err)
			}
			deltas := watchDeltas(b, eng, e.rel)

			// Each delta applies once per dataset registration, so the
			// dataset (and its watchers) are recycled off the clock
			// whenever the pool runs dry.
			var (
				ds      *Dataset
				cancels []func()
				drain   sync.WaitGroup
			)
			register := func() {
				var err error
				ds, err = eng.RegisterDataset(e.rel)
				if err != nil {
					b.Fatal(err)
				}
				cancels = cancels[:0]
				for s := 0; s < subs; s++ {
					sig, cancel := ds.Subscribe()
					cancels = append(cancels, cancel)
					drain.Add(1)
					done := ds.Done()
					go func() {
						defer drain.Done()
						for {
							select {
							case <-sig:
							case <-done:
								return
							}
						}
					}()
				}
			}
			teardown := func() {
				for _, cancel := range cancels {
					cancel()
				}
				eng.DropDataset(ds.ID())
				drain.Wait()
			}

			register()
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(deltas) {
					b.StopTimer()
					teardown()
					register()
					next = 0
					b.StartTimer()
				}
				d := deltas[next]
				next++
				if _, err := ds.Observe(ctx, d.index, d.attr, d.val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			teardown()
			b.ReportMetric(float64(subs), "watchers")
		})
	}
}
