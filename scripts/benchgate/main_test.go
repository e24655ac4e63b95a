package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	out := []byte(`goos: linux
goarch: amd64
pkg: repro
BenchmarkEngineConcurrent/streams=1-2         	       5	 230049420 ns/op	   4380000 tuples/s
BenchmarkEngineConcurrent/streams=16-2        	some line the benchmark printed
       5	 891234567 ns/op	   2240000 tuples/s
BenchmarkQueryPlanner-2   	    1000	     15911 ns/op	    4096 B/op	      12 allocs/op
BenchmarkQueryAdaptive/adaptive
     100	    610000 ns/op
PASS
`)
	want := map[string]map[string]float64{
		"BenchmarkEngineConcurrent/streams=1":  {"ns/op": 230049420, "tuples/s": 4380000},
		"BenchmarkEngineConcurrent/streams=16": {"ns/op": 891234567, "tuples/s": 2240000},
		"BenchmarkQueryPlanner":                {"ns/op": 15911, "B/op": 4096, "allocs/op": 12},
		"BenchmarkQueryAdaptive/adaptive":      {"ns/op": 610000},
	}
	got := parse(out)
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, units := range want {
		for unit, v := range units {
			if got[name][unit] != v {
				t.Errorf("%s %s = %v, want %v", name, unit, got[name][unit], v)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	nsop := metric{"BenchmarkQueryPlanner", "ns/op"}
	tput := metric{"BenchmarkEngineConcurrent/streams=1", "tuples/s"}
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	scaled := func(f float64, worse int) []float64 {
		c := make([]float64, len(base))
		for i, v := range base {
			c[i] = v * f
			if i >= worse {
				c[i] = v / f // these pairs go the change's way
			}
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		m       metric
		p, c    []float64
		verdict string
	}{
		{"10/10 losses at +35% fails", nsop, base, scaled(1.35, 10), "REGRESSED"},
		{"10/10 losses at +20% passes", nsop, base, scaled(1.20, 10), "ok"},
		{"7/10 losses at +60% passes", nsop, base, scaled(1.60, 7), "ok"},
		{"identical samples pass", nsop, base, base, "ok"},
		{"10/10 losses at -35% throughput fails", tput, base, scaled(0.65, 10), "REGRESSED"},
		{"10/10 wins at +35% throughput passes", tput, base, scaled(1.35, 10), "ok"},
		{"missing on the change side fails", nsop, base, nil, "missing"},
		{"missing on the parent side is new", nsop, nil, base, "new"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := judge(tc.m, tc.p, tc.c)
			if r.verdict != tc.verdict {
				t.Fatalf("verdict %q (losses %d, medians %.1f → %.1f), want %q", r.verdict, r.losses, r.parent, r.change, tc.verdict)
			}
			var out bytes.Buffer
			failed := report(&out, []row{r})
			if want := tc.verdict == "REGRESSED" || tc.verdict == "missing"; (len(failed) > 0) != want {
				t.Errorf("report failed %v, want failure %v", failed, want)
			}
			if !strings.Contains(out.String(), tc.verdict) {
				t.Errorf("table does not print %q:\n%s", tc.verdict, out.String())
			}
		})
	}
}

// testRepo makes a git repository with one committed file under a
// hermetic git configuration.
func testRepo(t *testing.T) string {
	t.Setenv("GIT_CONFIG_GLOBAL", os.DevNull)
	t.Setenv("GIT_CONFIG_NOSYSTEM", "1")
	for _, k := range []string{"GIT_AUTHOR", "GIT_COMMITTER"} {
		t.Setenv(k+"_NAME", "benchgate")
		t.Setenv(k+"_EMAIL", "benchgate@example.invalid")
	}
	dir := t.TempDir()
	mustGit(t, dir, "init", "-q")
	commitFile(t, dir, "first")
	return dir
}

func commitFile(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	mustGit(t, dir, "add", "f.txt")
	mustGit(t, dir, "commit", "-q", "-m", content)
}

func mustGit(t *testing.T, dir string, args ...string) {
	t.Helper()
	if _, err := git(context.Background(), dir, args...); err != nil {
		t.Fatal(err)
	}
}

func TestParentRev(t *testing.T) {
	dir := testRepo(t)
	commitFile(t, dir, "second")
	ctx := context.Background()
	if rev, err := parentRev(ctx, dir); err != nil || rev != "HEAD^" {
		t.Errorf("clean tree: parent %q, %v; want HEAD^", rev, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte("edited"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rev, err := parentRev(ctx, dir); err != nil || rev != "HEAD" {
		t.Errorf("dirty tree: parent %q, %v; want HEAD", rev, err)
	}
}

func TestGateRootCommitIsANote(t *testing.T) {
	dir := testRepo(t)
	var out bytes.Buffer
	if err := gate(context.Background(), dir, &out); err != nil {
		t.Fatalf("gate on a root commit: %v", err)
	}
	if !strings.Contains(out.String(), "no parent commit HEAD^") {
		t.Errorf("gate printed %q, want a note naming the missing HEAD^", out.String())
	}
}
