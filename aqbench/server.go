package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one aqserver child process on loopback.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	client   *http.Client
	logFile  *os.File
	exited   chan struct{}
	stopOnce sync.Once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer spawns aqserver, waits until it answers /healthz, then
// registers the workload's source and queries. It returns the set-up
// time: spawn until the last registration's 201.
func startServer(bin, logPath string, w *workload, durableDir string) (*server, time.Duration, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	tcpAddr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", httpAddr, "-listen", tcpAddr}, w.serverFlags(durableDir)...)
	s := &server{
		cmd:      exec.Command(bin, args...),
		httpAddr: httpAddr,
		tcpAddr:  tcpAddr,
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 10 * time.Second},
		logFile:  logFile,
		exited:   make(chan struct{}),
	}
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	// The server dies with the harness, however the harness ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, err
	}
	liveServer.Store(s)
	go func() { s.cmd.Wait(); close(s.exited) }()
	if err := s.awaitHealthy(t0.Add(20 * time.Second)); err != nil {
		s.stop()
		return nil, 0, err
	}
	if err := s.post("/api/sources", map[string]string{"name": w.source}); err != nil {
		s.stop()
		return nil, 0, err
	}
	for _, q := range w.queries {
		if err := s.post("/api/queries", map[string]string{"name": q.name, "tenant": "bench", "cql": q.cql}); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

func (s *server) url(path string) string { return "http://" + s.httpAddr + path }

func (s *server) awaitHealthy(deadline time.Time) error {
	for {
		resp, err := s.client.Get(s.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("aqserver exited during start-up (see %s)", s.logFile.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("aqserver not healthy after 20s")
		}
	}
}

// post sends a JSON body and requires 201 Created.
func (s *server) post(path string, body any) error {
	b, _ := json.Marshal(body)
	resp, err := s.client.Post(s.url(path), "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, out)
	}
	return nil
}

// getJSON decodes a GET response into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url(path))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queryStatus is the subset of the server's status JSON the harness
// reads.
type queryStatus struct {
	Name     string `json:"name"`
	TuplesIn int64  `json:"tuplesIn"`
	Windows  int64  `json:"windowsEmitted"`
	Shed     int64  `json:"shedTuples"`
	Panics   int64  `json:"stagePanics"`
}

// statuses reads every runtime query's status in one request.
func (s *server) statuses() ([]queryStatus, error) {
	var out []queryStatus
	err := s.getJSON("/api/queries", &out)
	return out, err
}

// wireResult is the results endpoint's JSON shape.
type wireResult struct {
	Window  int64   `json:"window"`
	Start   int64   `json:"start"`
	End     int64   `json:"end"`
	Value   float64 `json:"value"`
	Count   int64   `json:"count"`
	Latency int64   `json:"latency"`
}

func (s *server) results(query string, last int) ([]wireResult, error) {
	var out []wireResult
	err := s.getJSON(fmt.Sprintf("/queries/%s/results?last=%d", query, last), &out)
	return out, err
}

// scrape fetches /metrics and returns every sample whose metric name is
// in names, keyed by the full series text (name plus labels).
func (s *server) scrape(names ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		for _, n := range names {
			if name == n {
				if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
					out[series] = v
				}
				break
			}
		}
	}
	return out, sc.Err()
}

// sumSeries adds every sample of metric name in m.
func sumSeries(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// maxSeries is the largest sample of metric name in m.
func maxSeries(m map[string]float64, name string) float64 {
	var t float64
	for k, v := range m {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > t {
			t = v
		}
	}
	return t
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux ABI this runs on).
const clkTck = 100

// cpuTime reads a process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rp := bytes.LastIndexByte(b, ')')
	if rp < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[rp+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	const field = "VmHWM:"
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 20s. It is idempotent.
func (s *server) stop() {
	s.stopOnce.Do(s.doStop)
}

func (s *server) doStop() {
	if s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.client.CloseIdleConnections()
	s.logFile.Close()
}
