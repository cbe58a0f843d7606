package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// probeClient carries the benchmark's own requests to the daemon
// (readiness, metrics); the timeout keeps a wedged daemon from hanging
// the run.
var probeClient = &http.Client{Timeout: 10 * time.Second}

// server is one lsiserve process listening on a loopback port.
type server struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	done     chan struct{}
	stopOnce sync.Once
}

// startServer runs bin on the saved index with extra flags and returns
// once /readyz answers 200. The daemon's own output goes to stderr.
func startServer(bin, index string, flags []string) (*server, error) {
	args := append([]string{"-index", index, "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the benchmark die without stopping the daemon, the kernel
	// stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lsiserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	// The load generator shares the host's cores with the daemon. At
	// nice 10 the daemon yields to it, so a request is sent when it is
	// due rather than when the daemon leaves a core free.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, cmd.Process.Pid, 10); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: lowering lsiserve's priority: %v\n", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		close(addr)
		_ = cmd.Wait() // the exit status is irrelevant once stdout closed
		close(s.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-s.done
			return nil, fmt.Errorf("lsiserve exited before listening")
		}
		s.base = a
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("lsiserve did not start listening within 120s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := probeClient.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("lsiserve not ready within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the daemon gracefully and waits for it to exit,
// killing it if it outlives the grace period.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	})
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// scrape fetches and parses the daemon's /metrics exposition.
func (s *server) scrape() (promSeries, error) {
	resp, err := probeClient.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// promSeries maps a series, written as in the exposition
// (`name{label="v"}`), to its value.
type promSeries map[string]float64

// parseProm parses Prometheus text exposition: comment lines are
// skipped, every other line is a series followed by its value.
func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after promSeries, name string) float64 {
	return after[name] - before[name]
}

// postJSON is a POST with a JSON body that returns the status and the
// whole response body.
func postJSON(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// cpuTime reads the daemon's user plus system CPU time, all threads,
// from /proc/<pid>/stat (in clock ticks of 1/100 s).
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields resume after its ')'.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", s.cmd.Process.Pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}
