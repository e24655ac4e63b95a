package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, against an mrslserve built from this
// checkout. Each run must pass its output checks and print every metric
// BENCHMARK.json names for its mode, by name with its unit, both as a
// text line and in the JSON result on the last line.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mrslserve and replays six short runs")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "mrslserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/mrslserve").CombinedOutput(); err != nil {
		t.Fatalf("building mrslserve: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(config{
					workload: wl.Name, seed: 3, seconds: 1, trace: trace,
					server: bin, work: t.TempDir(), scale: 0.2,
				}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				want := spec.EndToEnd
				prefix := "metric "
				if trace {
					want, prefix = spec.PerLayer, "layer metric "
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json names %d", len(last.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("result metric %s = %+v, want a finite value in %s", m.Name, got, m.Unit)
					}
					if !trace && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
					if !hasLine(lines, prefix+m.Name+" ", " "+m.Unit) {
						t.Errorf("no %q line ending in unit %s", prefix+m.Name, m.Unit)
					}
				}
			})
		}
	}
}

func hasLine(lines []string, prefix, suffix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, suffix) {
			return true
		}
	}
	return false
}

// TestPercentileRule pins the tail rule: a percentile is reported only
// with at least ten samples beyond it, so p99 needs 1,000 samples.
func TestPercentileRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for n := 1; n <= 2100; n++ {
		v, ok := percentile(sample(n), 0.99)
		beyond := 0
		for _, x := range sample(n) {
			if x > v {
				beyond++
			}
		}
		if ok != (beyond >= minBeyond) {
			t.Fatalf("n=%d: p99=%v has %d samples beyond it, ok=%v", n, v, beyond, ok)
		}
	}
	if _, ok := percentile(sample(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(sample(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if got := minSamplesFor(0.99); got != 1000 {
		t.Errorf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	if got := minSamplesFor(0.9); got != 100 {
		t.Errorf("minSamplesFor(0.9) = %d, want 100", got)
	}
	if got := readCount(1, 1); got < minSamplesFor(0.99) {
		t.Errorf("readCount(1, 1) = %d reads, fewer than p99 needs", got)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestWindowCuts pins how a pass is cut into windows: windowCount of
// them, the first starting the sequence, every measured window with
// enough reads for its p90 and the measured windows together with
// enough for p99, and each window but the last a whole number of
// periods.
func TestWindowCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		reads, period int
		writeShare    float64
	}{
		{readCount(1, hotPerSecond), 1, 0},
		{readCount(30, hotPerSecond), 1, 0},
		{readCount(30, coldPerSecond), 1, 0},
		{liveReads(1), len(liveCycle), liveWriteShare},
		{liveReads(30), len(liveCycle), liveWriteShare},
	} {
		var seq []request
		for reads := 0; reads < tc.reads; {
			if rng.Float64() < tc.writeShare {
				seq = append(seq, request{kind: kindObserve})
				continue
			}
			seq = append(seq, request{kind: kindCount})
			reads++
		}
		starts := cutWindows(seq, tc.period)
		if len(starts) != windowCount || starts[0] != 0 {
			t.Fatalf("%d reads: window starts %v, want %d starting at 0", tc.reads, starts, windowCount)
		}
		measured := 0
		for k := range starts {
			end := len(seq)
			if k+1 < len(starts) {
				end = starts[k+1]
			}
			n := countReads(seq[starts[k]:end])
			if k > 0 {
				measured += n
			}
			if n < minSamplesFor(0.9) {
				t.Errorf("%d reads: window %d has %d reads, p90 needs %d", tc.reads, k, n, minSamplesFor(0.9))
			}
			if k+1 < len(starts) && n%tc.period != 0 {
				t.Errorf("%d reads: window %d has %d reads, not whole turns of %d", tc.reads, k, n, tc.period)
			}
		}
		if measured < minSamplesFor(0.99) {
			t.Errorf("%d reads: measured windows hold %d reads, p99 needs %d", tc.reads, measured, minSamplesFor(0.99))
		}
	}
}
