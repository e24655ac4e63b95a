package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// server is one mrslserve process, started fresh for every timed pass.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	errPath string // the process's standard error (request log, gctrace)
	errFile *os.File
	outDone chan struct{}
	ready   time.Duration // exec to the first /healthz 200
}

// startServer execs mrslserve on a kernel-picked loopback port, with the
// sampler options engineOptions gives the reference engine, and waits
// for /healthz. gctrace adds GODEBUG=gctrace=1 (traced passes only).
func startServer(bin string, e *env, cacheSize int, dir, tag string, gctrace bool) (*server, error) {
	errPath := filepath.Join(dir, "server-"+tag+".stderr")
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-model", e.modelPath, "-addr", "127.0.0.1:0",
		"-cache-entries", strconv.Itoa(cacheSize),
		"-samples", strconv.Itoa(gibbsSamples), "-burnin", strconv.Itoa(gibbsBurnIn),
		"-seed", strconv.FormatInt(gibbsSeed, 10), "-workers", strconv.Itoa(gibbsWorkers))
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.Stderr = errFile
	// Should the benchmark itself be killed, the kernel takes the server
	// down with it instead of leaving it serving.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		errFile.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		errFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, errPath: errPath, errFile: errFile, outDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.outDone)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "mrslserve: listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("mrslserve exited before listening; see %s", errPath)
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("mrslserve did not listen within 60s; see %s", errPath)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("mrslserve /healthz not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	s.ready = time.Since(start)
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM (SIGKILL after 20s) and waits for
// the process and its output reader to end.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("mrslserve did not drain within 20s: %v", <-done)
	}
	<-s.outDone
	s.errFile.Close()
	return err
}

// stderrSize is the current length of the server's standard error, so a
// pass can cut the gctrace lines of its timed phase out of the file.
func (s *server) stderrSize() int64 {
	fi, err := s.errFile.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// procSample is one reading of the server's /proc counters.
type procSample struct {
	cpuTicks int64 // utime + stime, all threads, in clock ticks
	syscw    int64 // write syscalls
	wchar    int64 // bytes written
	runqNS   int64 // time runnable but not running, summed over threads
	hwmKB    int64 // peak resident set (VmHWM)
}

const clockTicks = 100 // USER_HZ on Linux

func readProc(pid int) (procSample, error) {
	var p procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return p, fmt.Errorf("short %s/stat", dir)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.cpuTicks = ut + st
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscw":
			p.syscw = n
		case "wchar":
			p.wchar = n
		}
	}
	tasks, err := os.ReadDir(dir + "/task")
	if err != nil {
		return p, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(b)); len(f) >= 2 {
			n, _ := strconv.ParseInt(f[1], 10, 64)
			p.runqNS += n
		}
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			p.hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return p, nil
}

// hostCPU is one reading of the host's aggregate CPU line in /proc/stat.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// scrape is one reading of the server's exported state: the /metrics
// series by name (labels included) and the /stats engine counters.
type scrape struct {
	series map[string]float64
	stats  repro.EngineStats
}

func (s *server) scrape() (scrape, error) {
	sc := scrape{series: map[string]float64{}}
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return sc, err
	}
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		line := lines.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			sc.series[line[:i]] = v
		}
	}
	resp.Body.Close()
	if err := lines.Err(); err != nil {
		return sc, err
	}
	resp, err = http.Get(s.base + "/stats")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	var st struct {
		Engine repro.EngineStats `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return sc, fmt.Errorf("decoding /stats: %w", err)
	}
	sc.stats = st.Engine
	return sc, nil
}

// hist is the change of one histogram between two scrapes.
type hist struct{ count, sumSeconds float64 }

func (h hist) meanMS() float64 { return 1000 * ratio(h.sumSeconds, h.count) }

func histDelta(a, b scrape, name, labels string) hist {
	key := func(suffix string) string {
		if labels == "" {
			return name + suffix
		}
		return name + suffix + "{" + labels + "}"
	}
	return hist{
		count:      b.series[key("_count")] - a.series[key("_count")],
		sumSeconds: b.series[key("_sum")] - a.series[key("_sum")],
	}
}
