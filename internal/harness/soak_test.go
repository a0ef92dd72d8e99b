package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"realroots/internal/telemetry"
)

// TestSoakExpositionGolden runs the deterministic single-worker soak
// (tiny grid, virtual time) against a fresh hub and pins the scrubbed
// Prometheus exposition: every counter that doesn't measure wall time
// is exact and must not drift silently. Regenerate with -update.
func TestSoakExpositionGolden(t *testing.T) {
	cfg := tiny()
	cfg.Simulate = true
	cfg.Procs = []int{1}
	tel := telemetry.New(telemetry.Config{})
	cfg.Telemetry = tel
	var out bytes.Buffer
	if err := Soak(&out, cfg); err != nil {
		t.Fatalf("Soak: %v", err)
	}

	var expo bytes.Buffer
	if err := tel.Registry().WritePrometheus(&expo); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := telemetry.ValidateExposition(expo.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, expo.String())
	}

	got := scrub(expo.String())
	path := filepath.Join("testdata", "golden", "soak_metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("soak exposition drifted from golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSoakDurationBound checks the wall-clock stop condition.
func TestSoakDurationBound(t *testing.T) {
	cfg := tiny()
	cfg.Simulate = true
	cfg.SoakDuration = 50 * time.Millisecond
	cfg.SoakSolves = 0
	start := time.Now()
	var out bytes.Buffer
	if err := Soak(&out, cfg); err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("duration-bounded soak ran far past its budget")
	}
	if !bytes.Contains(out.Bytes(), []byte(", panics ")) {
		t.Fatalf("soak summary incomplete:\n%s", out.String())
	}
}

// TestSoakUsesPrivateHub checks soak works without a configured hub.
func TestSoakUsesPrivateHub(t *testing.T) {
	cfg := tiny()
	cfg.Simulate = true
	cfg.SoakSolves = 2
	var out bytes.Buffer
	if err := Soak(&out, cfg); err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("2 solves in")) {
		t.Fatalf("soak summary:\n%s", out.String())
	}
}
