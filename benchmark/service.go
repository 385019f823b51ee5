package main

import (
	"bufio"
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
	"sync"
	"time"
)

// service_http: the full wrapper stack the step-loop workloads bypass —
// HTTP and JSON, svc admission, pooled worlds, tag namespaces, per-tenant
// metrics — around a 4-rank, 4 KiB allreduce. The benchmark builds and
// execs cmd/gcaserve and drives it with one closed-loop client per CPU;
// each client cycles open → 50 runs → close, and one /v1/run is one step.
const (
	svcRanks        = 4
	svcBytes        = 4096
	svcRunsPerCycle = 50
	svcOp           = "allreduce"
)

// buildDir holds what the benchmark compiles. It lives in the benchmark's
// own directory (the working directory under `go run -C benchmark`) and is
// named in the repository's .gitignore.
const buildDir = ".bench_build"

// buildGcaserve compiles cmd/gcaserve; its time is no part of set-up.
func buildGcaserve() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "gcaserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "exacoll/cmd/gcaserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build gcaserve: %v\n%s", err, out)
	}
	return bin, nil
}

// gcaserve is one running server child.
type gcaserve struct {
	cmd    *exec.Cmd
	addr   string // host:port it reported listening on
	waited chan struct{}
	werr   error
}

// startGcaserve execs the server on an ephemeral loopback port and waits
// for the "listening on" line it prints once bound.
func startGcaserve(bin string) (*gcaserve, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec gcaserve: %w", err)
	}
	g := &gcaserve{cmd: cmd, waited: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		if first {
			close(lines)
		}
		// Wait only after stdout is drained, as os/exec requires.
		g.werr = cmd.Wait()
		close(g.waited)
	}()
	select {
	case line, ok := <-lines:
		const prefix = "gcaserve listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			g.stop()
			return nil, fmt.Errorf("gcaserve: unexpected first line %q", line)
		}
		g.addr = strings.TrimPrefix(line, prefix)
	case <-time.After(20 * time.Second):
		g.stop()
		return nil, fmt.Errorf("gcaserve: no listening line within 20s")
	}
	return g, nil
}

// stop kills the child and waits until it has been reaped.
func (g *gcaserve) stop() {
	_ = g.cmd.Process.Kill() // already-exited is fine: the wait below is what matters
	<-g.waited
}

func (g *gcaserve) url(path string) string { return "http://" + g.addr + path }

// svcClient is one closed-loop client: one keep-alive connection.
type svcClient struct {
	hc *http.Client
	g  *gcaserve
}

func newSvcClient(g *gcaserve) *svcClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &svcClient{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, g: g}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

// call issues one request and decodes the JSON reply; any non-2xx status is
// an error.
func (c *svcClient) call(method, path string, out any) error {
	req, err := http.NewRequestWithContext(context.Background(), method, c.g.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

func (c *svcClient) open(id string) error {
	var r struct {
		ID    string `json:"id"`
		Ranks int    `json:"ranks"`
	}
	if err := c.call("POST", fmt.Sprintf("/v1/open?id=%s&qos=latency&ranks=%d", id, svcRanks), &r); err != nil {
		return err
	}
	if r.ID != id || r.Ranks != svcRanks {
		return fmt.Errorf("open %s: server answered id=%q ranks=%d", id, r.ID, r.Ranks)
	}
	return nil
}

// run issues one /v1/run and returns the time the server says the
// collective took. The server verifies the allreduce result itself and
// answers 500 when it is wrong; the client checks the echo.
func (c *svcClient) run(id string) (serverSec float64, err error) {
	var r struct {
		ID      string  `json:"id"`
		Op      string  `json:"op"`
		Bytes   int     `json:"bytes"`
		Seconds float64 `json:"seconds"`
	}
	if err := c.call("POST", fmt.Sprintf("/v1/run?id=%s&op=%s&bytes=%d", id, svcOp, svcBytes), &r); err != nil {
		return 0, err
	}
	if r.ID != id || r.Op != svcOp || r.Bytes != svcBytes || r.Seconds <= 0 {
		return 0, fmt.Errorf("run %s: server answered %+v", id, r)
	}
	return r.Seconds, nil
}

func (c *svcClient) closeTenant(id string) error {
	return c.call("POST", "/v1/close?id="+id, nil)
}

// healthz polls until the server reports ok.
func (c *svcClient) healthz() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		err := c.call("GET", "/healthz", &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz not ok within 10s: %v (status %q)", err, h.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// svcSetup is one full set-up of the service workload: exec the server,
// wait for /healthz, and run one whole client cycle as warm-up (whose
// first request is the first /v1/open).
func svcSetup(bin string, seed uint64) (*gcaserve, error) {
	g, err := startGcaserve(bin)
	if err != nil {
		return nil, err
	}
	c := newSvcClient(g)
	defer c.close()
	if err := c.healthz(); err != nil {
		g.stop()
		return nil, err
	}
	id := fmt.Sprintf("warm-%x", seed)
	if err := c.open(id); err != nil {
		g.stop()
		return nil, err
	}
	for i := 0; i < svcRunsPerCycle; i++ {
		if _, err := c.run(id); err != nil {
			g.stop()
			return nil, err
		}
	}
	if err := c.closeTenant(id); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// svcPass is what one timed pass of the service workload measured.
type svcPass struct {
	lat       []int64 // client latency of every successful /v1/run, ns
	serverNs  []int64 // the server-reported time of the same runs
	openNs    []int64
	closeNs   []int64
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	clients   int
}

// svcLoop runs the closed loop: `clients` goroutines, each cycling open →
// svcRunsPerCycle runs → close until the deadline (or maxCycles each).
// Tenant ids come from the seed, the client and the cycle.
func svcLoop(g *gcaserve, seed uint64, clients int, d time.Duration, maxCycles int) svcPass {
	var mu sync.Mutex
	pass := svcPass{clients: clients}
	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := newSvcClient(g)
			defer c.close()
			var lat, srv, opens, closes []int64
			attempted, failed := 0, 0
			var firstErr error
			note := func(n int, err error) {
				failed += n
				if firstErr == nil {
					firstErr = err
				}
			}
			for cycle := 0; (maxCycles <= 0 || cycle < maxCycles) && (maxCycles > 0 || time.Since(start) < d); cycle++ {
				id := fmt.Sprintf("t%x-%d-%d", seed, cl, cycle)
				t0 := time.Now()
				if err := c.open(id); err != nil {
					// A refused open loses the whole cycle's runs.
					attempted += svcRunsPerCycle
					note(svcRunsPerCycle, err)
					continue
				}
				opens = append(opens, int64(time.Since(t0)))
				for i := 0; i < svcRunsPerCycle; i++ {
					attempted++
					t0 := time.Now()
					sec, err := c.run(id)
					if err != nil {
						note(1, err)
						continue
					}
					lat = append(lat, int64(time.Since(t0)))
					srv = append(srv, int64(sec*1e9))
				}
				t0 = time.Now()
				if err := c.closeTenant(id); err != nil {
					note(1, err)
					continue
				}
				closes = append(closes, int64(time.Since(t0)))
			}
			mu.Lock()
			pass.lat = append(pass.lat, lat...)
			pass.serverNs = append(pass.serverNs, srv...)
			pass.openNs = append(pass.openNs, opens...)
			pass.closeNs = append(pass.closeNs, closes...)
			pass.attempted += attempted
			pass.failed += failed
			if pass.firstErr == nil {
				pass.firstErr = firstErr
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	pass.wall = time.Since(start)
	return pass
}

// svcClients is the closed loop's client count: one per CPU, so the
// clients never outnumber the cores the server's ranks also need.
func svcClients() int { return runtime.NumCPU() }

// portReleased reports whether addr can be bound again.
func portReleased(addr string) bool {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	ln.Close()
	return true
}
