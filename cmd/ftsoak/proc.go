// Child supervision shared by the crash and cluster parents: one way to find
// the executable and a scratch root, start a child, scrape its address, keep
// its output, kill and reap it, poll an endpoint until it settles, and fail
// with everything needed to look at what happened.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"time"

	"ftdag/internal/core"
	"ftdag/internal/journal"
)

// proc is one supervised child process. It is the writer of the child's
// stdout and stderr: it keeps both for the failure report and picks the
// child's listen address out of them.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the child has been reaped
	err  error         // cmd.Wait's verdict; read it after done

	mu    sync.Mutex
	out   bytes.Buffer
	ready chan struct{} // closed once url is set
	url   string        // from the child's "listening <addr>" line
}

var listenLine = regexp.MustCompile(`(?m)^listening (\S+)\n`)

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out.Write(b)
	if p.url == "" {
		if m := listenLine.FindSubmatch(p.out.Bytes()); m != nil {
			p.url = "http://" + string(m[1])
			close(p.ready)
		}
	}
	return len(b), nil
}

// output is everything the child has printed so far.
func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startProc starts exe with args, and reaps it whenever it exits, killed or
// not: no child this helper starts is left a zombie.
func startProc(name, exe string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(exe, args...), done: make(chan struct{}), ready: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// listening waits for the child to report its listen address, after which
// p.url is set. A child that dies first, or stays silent, is reported with
// what it printed.
func (p *proc) listening(within time.Duration) error {
	select {
	case <-p.ready:
		return nil
	case <-p.done:
		return fmt.Errorf("%s exited before reporting its address: %v\n--- %s output ---\n%s", p.name, p.err, p.name, p.output())
	case <-time.After(within):
		return fmt.Errorf("%s never reported its address\n--- %s output ---\n%s", p.name, p.name, p.output())
	}
}

// kill SIGKILLs the child and waits until it is reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // an error means it has already exited
	<-p.done
}

// soak is a parent run: the executable to re-exec, a scratch root, every
// child started so far, and the client that talks to them.
type soak struct {
	exe, root string
	procs     []*proc
	client    *http.Client
}

func newSoak(kind string) *soak {
	s := &soak{client: &http.Client{Timeout: 10 * time.Second}}
	var err error
	if s.exe, err = os.Executable(); err == nil {
		s.root, err = os.MkdirTemp("", "ftsoak-"+kind+"-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsoak: %v\n", err)
		os.Exit(1)
	}
	return s
}

// fatalf fails the soak: the message, every child's output, and the scratch
// root kept for inspection.
func (s *soak) fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ftsoak: FAILURE: "+format+"\n", args...)
	for _, p := range s.procs {
		p.kill()
		fmt.Fprintf(os.Stderr, "--- %s output ---\n%s", p.name, p.output())
	}
	fmt.Fprintf(os.Stderr, "  state kept for inspection: %s\n", s.root)
	os.Exit(1)
}

// start re-execs this binary as a child.
func (s *soak) start(name string, args ...string) *proc {
	p, err := startProc(name, s.exe, args...)
	if err != nil {
		s.fatalf("starting %s: %v", name, err)
	}
	s.procs = append(s.procs, p)
	return p
}

// references runs every job sequentially and returns its sink digest by job
// name: what every incarnation, survivor and replay has to reproduce.
func (s *soak) references(jobs []crashJob) map[string]string {
	want := make(map[string]string, len(jobs))
	for _, c := range jobs {
		res, err := core.NewSequential(c.graph(), 0).Run()
		if err != nil {
			s.fatalf("sequential reference %s: %v", c.name(), err)
		}
		want[c.name()] = journal.Digest(res.Sink)
	}
	return want
}

// pollJSON GETs url every 20ms until settled accepts the decoded reply, and
// returns it. A 503 is the failover window and is polled through; any other
// non-200, a transport or decode error, or a minute without settling (reported
// as stuck) fails the soak.
func pollJSON[T any](s *soak, url, what, stuck string, settled func(T) bool) T {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		resp, err := s.client.Get(url)
		if err != nil {
			s.fatalf("%s: %v", what, err)
		}
		var v T
		err = json.NewDecoder(resp.Body).Decode(&v)
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			continue
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			s.fatalf("%s: code %d, err %v", what, resp.StatusCode, err)
		}
		if settled(v) {
			return v
		}
	}
	s.fatalf("%s", stuck)
	panic("unreachable")
}
