package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs all seven workloads, tracing off and traced, at -smoke
// size through the same entry point the driver uses, and checks each
// result line against the declared metric lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run builds and execs gcaserve")
	}
	start := time.Now()
	for _, name := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := realMain([]string{"--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace, "-smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v (present=%v), want unit %s", name, trace, d.name, mv, ok, d.unit)
				}
				if trace == "0" && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", name, d.name, mv.Value)
				}
			}
		}
	}
	t.Logf("smoke pass of %d workloads x 2 took %v (under 10 s on the reference host without -race)", len(workloadNames), time.Since(start))
	// The child's build directory is the only thing a run may leave.
	if _, err := os.Stat(buildDir); err != nil {
		t.Errorf("expected %s after a service run: %v", buildDir, err)
	}
}

// Layer spans must appear on the workloads that use the layer and nowhere
// else: nbc/topo only on overlap_hier_mem, svc/http only on service_http.
func TestSpansAppearOnlyWhereTheLayerRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced smoke passes")
	}
	for _, name := range workloadNames {
		r, err := runOne(runConfig{workload: name, seed: 2, seconds: 1, trace: true, smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		has := func(prefix string) bool {
			for n := range r.SpanTotals {
				if strings.HasPrefix(n, prefix) {
					return true
				}
			}
			return false
		}
		if got, want := has("nbc.") && has("topo."), name == "overlap_hier_mem"; got != want {
			t.Errorf("%s: nbc/topo spans present=%v, want %v (%v)", name, got, want, sortedKeys(r.SpanTotals))
		}
		if got, want := has("svc.") && has("http."), name == "service_http"; got != want {
			t.Errorf("%s: svc/http spans present=%v, want %v", name, got, want)
		}
		if got, want := has("simnet."), name == "sim_sweep"; got != want {
			t.Errorf("%s: simnet spans present=%v, want %v", name, got, want)
		}
		if stepWorkload(name) != nil && !(has("transport.") && has("step")) {
			t.Errorf("%s: no transport spans under the step: %v", name, sortedKeys(r.SpanTotals))
		}
	}
}
