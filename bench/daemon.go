package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/pkg/steady/obs"
	"repro/pkg/steady/server"
)

// buildSteadyd compiles ./cmd/steadyd of the checkout the benchmark
// sits in. The daemon under test is always built from source here, so
// a result can never describe a stale binary.
func buildSteadyd(ctx context.Context, repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "steadyd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/steadyd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/steadyd in %s failed, refusing to run: %v\n%s", repoRoot, err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port. The listener
// is closed before the daemon binds it; nothing else on this box races
// for ephemeral ports while a run is in progress.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawner starts daemons from one OS thread that lives as long as the
// benchmark. Two things hang on that thread. Daemons are started with
// Pdeathsig, which Linux ties to the thread that forked them, not to
// the process: forking from a thread the Go runtime might retire would
// kill a daemon mid-run, and not setting it would orphan daemons when
// the benchmark is killed. And the thread carries the daemons' CPU
// affinity, which they inherit.
type spawner struct {
	jobs chan spawnJob
}

type spawnJob struct {
	cmd  *exec.Cmd
	done chan error
}

func newSpawner(cpus []int) (*spawner, error) {
	s := &spawner{jobs: make(chan spawnJob)}
	ready := make(chan error)
	go func() { // never returns: the thread must outlive every daemon
		runtime.LockOSThread()
		ready <- setThreadAffinity(cpus)
		for j := range s.jobs {
			j.done <- j.cmd.Start()
		}
	}()
	return s, <-ready
}

func (s *spawner) start(cmd *exec.Cmd) error {
	j := spawnJob{cmd: cmd, done: make(chan error)}
	s.jobs <- j
	return <-j.done
}

// daemon is one live steadyd under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// startDaemon spawns steadyd on addr with extra flags, keeping its
// stderr in logPath. The process dies with ctx at the latest.
func startDaemon(ctx context.Context, sp *spawner, bin, addr, logPath string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := sp.start(cmd); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status of a daemon we signal ourselves says nothing
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop ends the daemon and returns once it has been reaped: SIGTERM
// first (its graceful path logs the final cache counters), SIGKILL if
// it has not exited two seconds later.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(2 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

// waitHealthy polls /v1/healthz until the daemon answers, it exits, or
// ctx ends.
func (d *daemon) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("steadyd on %s exited before becoming healthy (see %s)", d.url, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape is one reading of a daemon's public observability surfaces.
type scrape struct {
	samples  []obs.Sample
	stats    server.StatsResponse
	cluster  server.ClusterResponse
	metricsD time.Duration // wall time of the GET /metrics itself
}

func getJSON(ctx context.Context, hc *http.Client, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func (d *daemon) scrape(ctx context.Context, hc *http.Client) (*scrape, error) {
	s := &scrape{}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.metricsD = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if s.samples, err = obs.ParseExposition(bytes.NewReader(body)); err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	if err := getJSON(ctx, hc, d.url+"/v1/stats", &s.stats); err != nil {
		return nil, err
	}
	if err := getJSON(ctx, hc, d.url+"/v1/cluster", &s.cluster); err != nil {
		return nil, err
	}
	return s, nil
}

// value sums the samples called name whose labels include every pair
// in match ("k=v"). Summing is what the callers want: a family with a
// shard or code label is read as its total.
func (s *scrape) value(name string, match ...string) float64 {
	total := 0.0
next:
	for _, sm := range s.samples {
		if sm.Name != name {
			continue
		}
		for _, m := range match {
			k, v, _ := strings.Cut(m, "=")
			if sm.Labels[k] != v {
				continue next
			}
		}
		total += sm.Value
	}
	return total
}
