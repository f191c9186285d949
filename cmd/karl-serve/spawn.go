// The exec spawn backend: -coordinator -mutable -spawn grows the
// cluster by process. A shard split hands spawnExec the moved half as a
// persistence stream; it re-execs this binary as a fresh
// `karl-serve -mutable` child seeded from that stream, discovers the
// child's listen address through the -addr-file handshake, and returns
// an HTTP client once the child answers health checks — so the member
// the manifest records is a real, independently restartable process.
package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"karl/internal/cluster"
	"karl/internal/shard"
)

// spawnStartTimeout bounds how long a spawned child may take to bind
// its listener and pass its first health check.
const spawnStartTimeout = 30 * time.Second

// spawnedProcs tracks the children the exec backend started, so tests
// (and operators debugging a wedged split) can find and stop them. The
// children deliberately do NOT die with the coordinator: they hold
// shard data and are re-attached by URL on the next -manifest resume.
var spawnedProcs struct {
	mu    sync.Mutex
	procs []*os.Process
}

// killSpawned terminates every child the exec backend started. Test
// teardown only — production children outlive the coordinator.
func killSpawned() {
	spawnedProcs.mu.Lock()
	defer spawnedProcs.mu.Unlock()
	for _, p := range spawnedProcs.procs {
		_ = p.Kill()
	}
	spawnedProcs.procs = nil
}

// spawnExec is the cluster.SpawnFunc behind -spawn. The moved stream
// travels through a temp -model file (deleted once the child is up:
// ReadEngine has fully loaded it by the time the health check passes),
// and the child binds 127.0.0.1:0 so concurrent splits never race over
// a port. The returned client's name is the child's base URL — the
// coordinator adopts it as the member's manifest name, which is what a
// later ResumeWritable re-attaches by.
func spawnExec(ctx context.Context, member shard.Member, moved []byte) (cluster.MutableShardClient, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	dir, err := os.MkdirTemp("", "karl-spawn-")
	if err != nil {
		return nil, fmt.Errorf("spawn: %w", err)
	}
	model := filepath.Join(dir, "moved.karl")
	if err := os.WriteFile(model, moved, 0o600); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("spawn: %w", err)
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(exe, "-mutable", "-model", model, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	// KARL_SERVE_REEXEC lets the test binary's TestMain dispatch into
	// main(); the real karl-serve binary ignores it.
	cmd.Env = append(os.Environ(), "KARL_SERVE_REEXEC=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("spawn: starting %s: %w", exe, err)
	}
	spawnedProcs.mu.Lock()
	spawnedProcs.procs = append(spawnedProcs.procs, cmd.Process)
	spawnedProcs.mu.Unlock()
	go func() { _ = cmd.Wait() }() // reap on exit

	fail := func(err error) (cluster.MutableShardClient, error) {
		_ = cmd.Process.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	addr, err := waitForAddrFile(ctx, addrFile, spawnStartTimeout)
	if err != nil {
		return fail(fmt.Errorf("spawn: member %s: %w", member.Name, err))
	}
	hs := cluster.NewHTTPShard("http://" + addr)
	deadline := time.Now().Add(spawnStartTimeout)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err = hs.Healthy(hctx)
		cancel()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return fail(fmt.Errorf("spawn: member %s: %w", member.Name, ctx.Err()))
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("spawn: member %s at %s never became healthy: %w", member.Name, addr, err))
		}
		time.Sleep(50 * time.Millisecond)
	}
	os.RemoveAll(dir)
	return hs, nil
}

// waitForAddrFile polls for the child's address publication. The file
// appears atomically (write+rename on the child side), so any non-empty
// read is complete.
func waitForAddrFile(ctx context.Context, path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(b)); addr != "" {
				return addr, nil
			}
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("child did not publish its address within %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
