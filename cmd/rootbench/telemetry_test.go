package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realroots/internal/harness"
	"realroots/internal/telemetry"
)

func TestSoakWithTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	slogPath := filepath.Join(dir, "solve.log")

	args := append([]string{
		"-exp", "soak", "-soak-solves", "4", "-simulate",
		"-metrics-out", metricsPath, "-slog", slogPath,
	}, fastArgs...)
	code, out, errOut := runBench(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(out, "4 solves in") {
		t.Fatalf("soak summary missing:\n%s", out)
	}

	metricsData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatalf("metrics-out: %v", err)
	}
	if err := telemetry.ValidateExposition(metricsData); err != nil {
		t.Fatalf("metrics-out invalid: %v", err)
	}
	if !strings.Contains(string(metricsData), `realroots_solves_total{outcome="ok"} 4`) {
		t.Fatalf("metrics-out missing solve counts:\n%s", metricsData)
	}

	slogData, err := os.ReadFile(slogPath)
	if err != nil {
		t.Fatalf("slog: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(slogData)), "\n")
	if len(lines) != 8 { // 4 solves × (start + finish)
		t.Fatalf("structured log has %d lines, want 8:\n%s", len(lines), slogData)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %q: %v", line, err)
		}
	}
}

// TestTelemetryServerFlag checks the -telemetry flag binds, announces
// its address on stderr (stdout stays reserved for results), and shuts
// down cleanly with the run.
func TestTelemetryServerFlag(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{
		"-exp", "soak", "-soak-solves", "2", "-simulate",
		"-telemetry", "127.0.0.1:0",
		"-metrics-out", filepath.Join(dir, "m.prom"),
	}, fastArgs...)
	code, _, errOut := runBench(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if !strings.Contains(errOut, "telemetry on http://127.0.0.1:") {
		t.Fatalf("bound address not announced on stderr: %q", errOut)
	}
}

// TestTelemetryEndpointsLive runs a soak on a served hub and scrapes
// its /metrics over HTTP.
func TestTelemetryEndpointsLive(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	cfg := harness.Quick()
	cfg.Degrees, cfg.Mus, cfg.Procs, cfg.Seeds = []int{6}, []uint{4}, []int{1}, []int64{1}
	cfg.Simulate = true
	cfg.SoakSolves = 2
	cfg.Telemetry = tel
	var out strings.Builder
	if err := harness.Soak(&out, cfg); err != nil {
		t.Fatalf("Soak: %v", err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")

	genArgs := append([]string{"-json", oldPath, "-simulate"}, fastArgs...)
	if code, _, errOut := runBench(t, genArgs...); code != 0 {
		t.Fatalf("grid generation exit %d, stderr %q", code, errOut)
	}
	data, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Identical snapshots pass.
	code, out, errOut := runBench(t, "-compare", oldPath, newPath)
	if code != 0 {
		t.Fatalf("identical compare exit %d, stderr %q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("compare table:\n%s", out)
	}

	// Inflate bit ops 2x -> regression on the deterministic metric.
	rep, err := harness.LoadGridJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	rep.Cells[0].BitOps *= 2
	tampered, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runBench(t, "-compare", "-compare-metric", "bitops", "-threshold", "25", oldPath, newPath)
	if code != 1 {
		t.Fatalf("regressed compare exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("compare table missing REGRESSION:\n%s", out)
	}

	// A 200% threshold tolerates the 100% jump.
	if code, _, _ := runBench(t, "-compare", "-threshold", "200", oldPath, newPath); code != 0 {
		t.Fatalf("lenient threshold still failed (exit %d)", code)
	}
}

func TestCompareUsageErrors(t *testing.T) {
	if code, _, errOut := runBench(t, "-compare", "only-one.json"); code != 2 || !strings.Contains(errOut, "exactly two") {
		t.Fatalf("one-arg compare: exit %d stderr %q", code, errOut)
	}
	if code, _, errOut := runBench(t, "-compare", "-compare-metric", "vibes", "a.json", "b.json"); code != 2 || !strings.Contains(errOut, "compare-metric") {
		t.Fatalf("bad metric: exit %d stderr %q", code, errOut)
	}
	if code, _, errOut := runBench(t, "-compare", "missing-a.json", "missing-b.json"); code != 2 || !strings.Contains(errOut, "missing-a.json") {
		t.Fatalf("missing file: exit %d stderr %q", code, errOut)
	}
	if code, _, errOut := runBench(t, "stray-positional"); code != 2 || !strings.Contains(errOut, "unexpected arguments") {
		t.Fatalf("stray positional: exit %d stderr %q", code, errOut)
	}
}
