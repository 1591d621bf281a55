package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the root of the kiff
// module, whose ./cmd/kiffserve the benchmark builds.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(mod, []byte("module kiff\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no kiff module (go.mod with \"module kiff\") above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/kiffserve from the working tree into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "kiffserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kiffserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kiffserve: %v\n%s", err, out)
	}
	return bin, nil
}

var servingLine = regexp.MustCompile(`kiffserve: serving on http://(\S+)`)

// server is one live kiffserve child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process is reaped
	err    error         // cmd.Wait's result; read only after exited closes

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startServer spawns kiffserve on an ephemeral loopback port and returns
// once /healthz answers 200, with the time that took: the server's
// set-up time.
func startServer(bin string, args []string, timeout time.Duration) (*server, time.Duration, error) {
	s := &server{exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addrc := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	go func() {
		<-scanned // Wait only after the pipe is drained
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addrc:
	case <-s.exited:
		return nil, 0, fmt.Errorf("kiffserve exited before serving: %v\n%s", s.err, s.stderrText())
	case <-time.After(timeout):
		s.kill()
		return nil, 0, fmt.Errorf("kiffserve not serving after %v\n%s", timeout, s.stderrText())
	}
	c := &httpConn{addr: s.addr}
	defer c.Close()
	for {
		if _, err := c.get("/healthz"); err == nil {
			return s, time.Since(start), nil
		} else if time.Since(start) > timeout {
			s.kill()
			return nil, 0, fmt.Errorf("kiffserve /healthz: %v\n%s", err, s.stderrText())
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) stderrText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// stop terminates the server gracefully and waits for it to exit,
// killing it if it does not within ten seconds.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if err := s.err; err != nil {
			return fmt.Errorf("kiffserve exited uncleanly: %v\n%s", err, s.stderrText())
		}
		return nil
	case <-time.After(10 * time.Second):
		s.kill()
		return errors.New("kiffserve ignored SIGTERM")
	}
}

// kill SIGKILLs the server and waits for it to be reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is the server's counters at one instant: the Prometheus series
// of /metrics by name (labels included) and the /stats document.
type scrape struct {
	At      float64
	Metrics map[string]float64
	Stats   statsDoc
}

// statsDoc is the part of /stats the per-layer metrics read.
type statsDoc struct {
	Maintain struct {
		SimEvals     float64 `json:"sim_evals"`
		Inserts      float64 `json:"inserts"`
		Rebuilds     float64 `json:"rebuilds"`
		RebuiltUsers float64 `json:"rebuilt_users"`
	} `json:"maintain"`
	Publish struct {
		Publications float64 `json:"publications"`
		PagesCopied  float64 `json:"pages_copied"`
		PagesShared  float64 `json:"pages_shared"`
		PublishNs    float64 `json:"publish_ns"`
	} `json:"publish"`
	WAL struct {
		Appended      float64 `json:"appended"`
		AppendedBytes float64 `json:"appended_bytes"`
		Fsyncs        float64 `json:"fsyncs"`
	} `json:"wal"`
}

func takeScrape(c *httpConn, at float64) (scrape, error) {
	sc := scrape{At: at, Metrics: map[string]float64{}}
	body, err := c.get("/metrics")
	if err != nil {
		return sc, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return sc, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		sc.Metrics[line[:i]] = v
	}
	if body, err = c.get("/stats"); err != nil {
		return sc, err
	}
	if err := json.Unmarshal(body, &sc.Stats); err != nil {
		return sc, fmt.Errorf("/stats: %w", err)
	}
	return sc, nil
}

// monitor watches the server on its own connection while the load runs:
// it samples /healthz's queue depth at 10 Hz and scrapes /metrics and
// /stats at every phase boundary.
type monitor struct {
	// scrapes[j] is taken at the start of phase j; the last one at the
	// end of the last phase.
	scrapes  []scrape
	maxDepth []int // per phase: highest queue depth sampled
	err      error
}

// runMonitor samples until the end of the schedule; it returns when the
// last boundary has been scraped.
func runMonitor(addr string, s schedule, clk clock) *monitor {
	m := &monitor{maxDepth: make([]int, len(s.Phases))}
	c := &httpConn{addr: addr}
	defer c.Close()
	bounds := []float64{s.Phases[0].Start}
	for _, p := range s.Phases {
		bounds = append(bounds, p.End)
	}
	for j, b := range bounds {
		for t := clk.Now(); j > 0 && t < b; t = clk.Now() {
			clk.SleepUntil(min(b, t+0.1))
			if clk.Now() >= b {
				break
			}
			body, err := c.get("/healthz")
			if err != nil {
				m.err = err
				continue
			}
			var h struct {
				QueueDepth int `json:"queue_depth"`
			}
			if json.Unmarshal(body, &h) == nil {
				m.maxDepth[j-1] = max(m.maxDepth[j-1], h.QueueDepth)
			}
		}
		sc, err := takeScrape(c, clk.Now())
		if err != nil {
			m.err = err
		}
		m.scrapes = append(m.scrapes, sc)
	}
	return m
}
