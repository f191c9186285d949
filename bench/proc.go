package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is one invocation's scratch: the repository root, a temp dir under
// its git-ignored .bench_build, the karl-serve binary built once into it,
// and every child process started so far.
type env struct {
	root   string
	tmp    string
	binary string

	mu    sync.Mutex
	procs []*proc
	seq   int
}

// findRoot walks up from the working directory to the go.mod that
// declares module karl.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module karl\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the karl repository (no go.mod declaring module karl above the working directory)")
		}
		dir = parent
	}
}

// newEnv creates the temp dir and builds cmd/karl-serve into it — the one
// build of this invocation.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, tmp: tmp, binary: filepath.Join(tmp, "karl-serve")}
	build := exec.Command("go", "build", "-o", e.binary, "./cmd/karl-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build ./cmd/karl-serve: %v\n%s", err, out)
	}
	return e, nil
}

// close kills every child still running and removes the temp dir. It is
// safe to call twice and from a signal handler goroutine.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(e.tmp)
}

// proc is one karl-serve child.
type proc struct {
	role string
	url  string
	cmd  *exec.Cmd
	log  *tail
	done chan struct{} // closed once Wait returned

	stopping atomic.Bool // set before the harness kills it
}

// tail keeps the last few KB a child wrote to stderr.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// start launches karl-serve on an ephemeral port in its own process group
// and waits for the address handshake and /v1/readyz.
func (e *env) start(role string, args ...string) (*proc, error) {
	e.mu.Lock()
	e.seq++
	addrFile := filepath.Join(e.tmp, fmt.Sprintf("addr-%d", e.seq))
	e.mu.Unlock()

	p := &proc{role: role, log: &tail{}, done: make(chan struct{})}
	p.cmd = exec.Command(e.binary, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	p.cmd.Stderr = p.log
	// Own process group, so one signal reaches anything the child starts;
	// Pdeathsig, so the child cannot outlive a harness that was SIGKILLed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for p.url == "" {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.url = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := p.waitTick(deadline, "publish its address"); err != nil {
			return nil, err
		}
	}
	for {
		resp, err := http.Get(p.url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if err := p.waitTick(deadline, "become ready"); err != nil {
			return nil, err
		}
	}
}

func (p *proc) waitTick(deadline time.Time, what string) error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited before it could %s:\n%s", p.role, what, p.log)
	case <-time.After(2 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("%s did not %s within 60s:\n%s", p.role, what, p.log)
	}
	return nil
}

// kill stops the child's whole process group and waits for it.
func (p *proc) kill() {
	p.stopping.Store(true)
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

// stop kills the given children and forgets them.
func (e *env) stop(procs []*proc) {
	e.mu.Lock()
	for _, p := range procs {
		for i, q := range e.procs {
			if q == p {
				e.procs = append(e.procs[:i], e.procs[i+1:]...)
				break
			}
		}
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// died reports the first child that exited without being told to (a crash,
// or a log.Fatalf), with the tail of what it logged, or nil.
func died(procs []*proc) error {
	for _, p := range procs {
		select {
		case <-p.done:
			if !p.stopping.Load() {
				return fmt.Errorf("%s (%s) died mid-run:\n%s", p.role, p.url, p.log)
			}
		default:
		}
	}
	return nil
}

// cpuSeconds is the CPU time a process has used. The scheduler's own
// account (/proc/<pid>/task/*/schedstat, nanoseconds on a core per thread)
// is exact; utime+stime in /proc/<pid>/stat is charged a whole 10 ms tick at
// a time to whatever runs when the tick fires, which at a few hundred ticks
// per run is a ±5 % sampling error. The tick count is the fallback where
// the kernel keeps no schedstats.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			return cpuTicks(pid)
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return cpuTicks(pid)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return cpuTicks(pid)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// cpuTicks reads utime+stime of a process from /proc/<pid>/stat, in
// seconds. USER_HZ is 100 on every Linux the benchmark can run on.
func cpuTicks(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name sits in parentheses and may hold spaces; the
	// numbered fields start after the closing one.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return float64(ut+st) * 0.01, nil
}

// stealSeconds is the CPU time the hypervisor has withheld from this guest
// since boot, summed over its CPUs (the steal column of /proc/stat, whole
// 10 ms ticks); 0 where there is none to read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 0.01
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// procUsage sums CPU seconds and peak RSS per role.
type procUsage struct {
	cpu map[string]float64
	rss map[string]float64
}

// usage reads the children's counters, and fails with the stderr tail of
// any child that died; with no children (the stack hosted in-process) it
// reads the harness's own, as role "server".
func usage(procs []*proc) (procUsage, error) {
	u := procUsage{cpu: map[string]float64{}, rss: map[string]float64{}}
	add := func(role string, pid int) error {
		t, err := cpuSeconds(pid)
		if err != nil {
			return err
		}
		r, err := peakRSSMB(pid)
		if err != nil {
			return err
		}
		u.cpu[role] += t
		u.rss[role] += r
		return nil
	}
	if len(procs) == 0 {
		return u, add("server", os.Getpid())
	}
	var err error
	for _, p := range procs {
		if err = add(p.role, p.cmd.Process.Pid); err != nil {
			break
		}
	}
	// /proc/<pid> of a dead server is gone: say who died and what it
	// logged, not "no such file".
	if derr := died(procs); derr != nil {
		return u, derr
	}
	return u, err
}

func sumMap(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
