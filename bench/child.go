package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// child is one ftserve process started by the benchmark.
type child struct {
	cmd      *exec.Cmd
	url      string // public address: the jobs API
	debugURL string // -debug-addr: pprof, read for the child's MemStats
	logPath  string
	exited   chan struct{} // closed once Wait has returned
}

// buildFtserve compiles cmd/ftserve from the checkout into .bench_build.
func (e *env) buildFtserve(ctx context.Context) (string, error) {
	bin := filepath.Join(e.o.root, ".bench_build", "bin", "ftserve")
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs, "./cmd/ftserve")
	cmd.Dir = e.o.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ftserve: %w\n%s", err, out)
	}
	return abs, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts `ftserve -data-dir <fresh dir> -workers nproc -maxjobs
// nproc` (defaults otherwise, so spans and the flight recorder are on as users
// run it) and returns once /healthz answers.
func (e *env) startChild(ctx context.Context, bin string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	debugPort, err := freePort()
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(e.runDir, "data-")
	if err != nil {
		return nil, err
	}
	c := &child{
		url:      fmt.Sprintf("http://127.0.0.1:%d", port),
		debugURL: fmt.Sprintf("http://127.0.0.1:%d", debugPort),
		logPath:  dataDir + ".log",
		exited:   make(chan struct{}),
	}
	logFile, err := os.Create(c.logPath)
	if err != nil {
		return nil, err
	}
	n := strconv.Itoa(e.nproc)
	c.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", debugPort),
		"-data-dir", dataDir, "-workers", n, "-maxjobs", n, "-grace", "5s")
	c.cmd.Stdout, c.cmd.Stderr = logFile, logFile
	err = c.cmd.Start()
	_ = logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("starting ftserve: %w", err)
	}
	go func() {
		_ = c.cmd.Wait() // exit status is read from ProcessState
		close(c.exited)
	}()
	if err := c.waitHealthy(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *child) waitHealthy(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(c.url + "/healthz")
		if err == nil {
			_ = resp.Body.Close() // only the status matters
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("ftserve exited during start-up:\n%s", c.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("ftserve not healthy after 15s:\n%s", c.logTail())
}

func (c *child) logTail() string {
	b, err := os.ReadFile(c.logPath)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop ends the child (SIGTERM, then SIGKILL after its drain budget) and
// waits until it has gone. It returns the child's resource usage.
func (c *child) stop() *syscall.Rusage {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // an error means it has already exited
		select {
		case <-c.exited:
		case <-time.After(15 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
		}
	}
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// childMem is the part of the child's runtime.MemStats the benchmark reads.
type childMem struct {
	totalAlloc uint64
	numGC      uint64
	pauseNS    []uint64 // runtime.MemStats.PauseNs: a ring of the last 256 pauses
}

// memStats reads the child's runtime.MemStats from the text form of its heap
// profile, which ends with them.
func (c *child) memStats() (childMem, error) {
	var m childMem
	resp, err := http.Get(c.debugURL + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && err == nil {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			m.totalAlloc, err = strconv.ParseUint(v, 10, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			m.numGC, err = strconv.ParseUint(v, 10, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# PauseNs = ["); ok {
			for _, f := range strings.Fields(strings.TrimSuffix(v, "]")) {
				var n uint64
				if n, err = strconv.ParseUint(f, 10, 64); err != nil {
					break
				}
				m.pauseNS = append(m.pauseNS, n)
			}
			found++
		}
	}
	if err == nil {
		err = sc.Err()
	}
	if err == nil && (found != 3 || len(m.pauseNS) == 0) {
		err = errors.New("heap profile carries no MemStats")
	}
	return m, err
}

// pauseSince sums the GC pauses between two readings (exact while fewer
// collections than the ring holds ran between them).
func (m childMem) pauseSince(before childMem) time.Duration {
	n := uint64(len(m.pauseNS))
	var sum uint64
	for gc := before.numGC + 1; gc <= m.numGC; gc++ {
		if m.numGC-gc < n {
			sum += m.pauseNS[(gc+n-1)%n]
		}
	}
	return time.Duration(sum)
}

// peakRSSMB is the peak resident set of a process so far (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetSelfPeakRSS restarts this process's VmHWM from its current resident
// set, so that the peak of one rep can be read after it.
func resetSelfPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func rusageCPU(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
