package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cs2p/internal/httpapi"
	"cs2p/internal/obs"
)

const readyTimeout = 30 * time.Second

// proc is one spawned tier binary.
type proc struct {
	name  string // "server" or "router"
	cmd   *exec.Cmd
	base  string // public base URL
	debug string // -debug-addr base URL
	log   string // path of the captured stdout+stderr
	done  chan struct{}
}

// tier is the out-of-process serving tier of one workload: one cs2p-server,
// or two behind a cs2p-router. url is the front door the driver talks to.
type tier struct {
	procs []*proc
	url   string
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("allocating a port: %w", err)
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// spawn starts one binary with its public and debug listeners on fresh
// ports and waits until /v1/healthz answers ready. The flags are the shipped
// defaults plus only what isolation needs.
func spawn(ctx context.Context, name, bin, workDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p := &proc{
		name:  name,
		base:  "http://" + addr,
		debug: "http://" + debug,
		log:   filepath.Join(workDir, fmt.Sprintf("%s-%s.log", name, strings.TrimPrefix(addr, "127.0.0.1:"))),
		done:  make(chan struct{}),
	}
	logFile, err := os.Create(p.log)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	p.cmd = exec.Command(bin, append([]string{"-addr", addr, "-debug-addr", debug}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logFile, logFile
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant: readiness and op failures report a dead child
		close(p.done)
	}()
	if err := p.waitReady(ctx); err != nil {
		p.stop()
		tail, _ := os.ReadFile(p.log)
		return nil, fmt.Errorf("%s did not come up: %w\n%s", name, err, tail)
	}
	return p, nil
}

func (p *proc) waitReady(ctx context.Context) error {
	c := httpapi.NewClient(p.base)
	deadline := time.Now().Add(readyTimeout)
	for {
		if _, err := c.Readiness(ctx); err == nil {
			return nil
		}
		select {
		case <-p.done:
			return errors.New("process exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v", readyTimeout)
		}
	}
}

// stop kills the process and waits until it is gone.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
}

// startTier boots the workload's tier from the registry directory.
func startTier(ctx context.Context, binDir, modelDir, workDir string, routed bool) (*tier, error) {
	t := &tier{}
	replicas := 1
	if routed {
		replicas = 2
	}
	var bases []string
	for i := 0; i < replicas; i++ {
		p, err := spawn(ctx, "server", filepath.Join(binDir, "cs2p-server"), workDir,
			"-model-dir", modelDir, "-model-poll", "1h")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
		bases = append(bases, p.base)
	}
	t.url = bases[0]
	if routed {
		p, err := spawn(ctx, "router", filepath.Join(binDir, "cs2p-router"), workDir,
			"-replicas", strings.Join(bases, ","))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.url = p.base
	}
	return t, nil
}

func (t *tier) stop() {
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// alive reports the first tier process that has exited, if any.
func (t *tier) alive() error {
	for _, p := range t.procs {
		select {
		case <-p.done:
			tail, _ := os.ReadFile(p.log)
			return fmt.Errorf("%s (pid %d) exited during the run\n%s", p.name, p.cmd.Process.Pid, tail)
		default:
		}
	}
	return nil
}

// sched is a process's scheduler accounting summed over its threads:
// nanoseconds on CPU and times scheduled in. /proc/<pid>/task/*/schedstat
// has nanosecond resolution where /proc/<pid>/stat's utime+stime tick at
// 10 ms, which would quantise a sub-second slice to a few percent.
type sched struct {
	cpuNs    int64
	switches int64
}

func readSched(pid int) (sched, error) {
	var s sched
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return s, fmt.Errorf("no schedstat for pid %d", pid)
	}
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 3 {
			return s, fmt.Errorf("malformed %s: %q", path, b)
		}
		ns, err1 := strconv.ParseInt(f[0], 10, 64)
		sw, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return s, fmt.Errorf("malformed %s: %q", path, b)
		}
		s.cpuNs += ns
		s.switches += sw
	}
	return s, nil
}

// readHWMMB is the process's peak resident set (VmHWM) in MB.
func readHWMMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// scrape reads a process's -debug-addr /metrics into name{labels} -> value.
func scrape(ctx context.Context, p *proc) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.debug+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", p.name, err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Key()] = s.Value
	}
	return out, nil
}
