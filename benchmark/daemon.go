package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildMatchd compiles the daemon under test from the repository root
// into dir and returns the binary's path.
func buildMatchd(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "matchd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/matchd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/matchd: %v\n%s", err, out)
	}
	return bin, nil
}

// adminToken authorizes the benchmark's PUTs; serving stays open.
const adminToken = "bench-admin"

// daemon is one running matchd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	out     *syncBuffer
	done    chan struct{}
	waitErr error
}

// syncBuffer collects the daemon's output; the exec copier goroutines
// write it while the benchmark may read it for an error message.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon execs bin with args plus a fresh loopback address file
// under dir and waits until the daemon is listening. started is the
// instant just before exec, the origin of setup_s and recovery_s.
func startDaemon(bin, dir string, args []string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a stale file would pass for the new daemon's address
	full := append([]string{"-quiet", "-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	d := &daemon{out: &syncBuffer{}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, full...)
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	// A benchmark killed mid-run must not leave its daemon behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = string(b)
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("matchd exited before listening: %v\n%s", d.waitErr, d.out)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("matchd did not listen within 60s\n%s", d.out)
		}
	}
}

// stop sends SIGTERM and waits for the drain; a daemon that does not
// exit within the budget is killed. It reports an unclean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("matchd did not drain within 60s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("matchd exit: %v\n%s", d.waitErr, d.out)
	}
	return nil
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already have exited
	<-d.done
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// liveHeapMiB collects the daemon's garbage and returns the heap still
// in use (runtime.MemStats.HeapAlloc just after the collection) in MiB.
// Both come from one request for its heap profile, which needs -pprof
// and the admin token. Unlike the resident set, the figure does not
// depend on when the collector last ran.
func (d *daemon) liveHeapMiB() (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("heap profile: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, err
			}
			return n / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no HeapAlloc in the heap profile")
}

// peakRSSMiB returns the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
