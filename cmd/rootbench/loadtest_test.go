package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realroots/internal/harness"
)

// TestLoadtestCLI runs the loadtest experiment end to end through the
// CLI: request counts on stdout, a valid bench-grid report in
// -load-out, and that report accepted by the -compare gate against
// itself.
func TestLoadtestCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "load.json")
	args := append([]string{"-exp", "loadtest", "-load-out", out, "-load-requests", "2"},
		"-degrees", "6,8", "-mus", "8", "-procs", "1,2", "-seeds", "1")
	code, stdout, stderr := runBench(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "loadtest:") || !strings.Contains(stdout, "0 errors") {
		t.Fatalf("summary missing:\n%s", stdout)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := harness.ValidateGridJSON(data); err != nil {
		t.Fatalf("-load-out report invalid: %v\n%s", err, data)
	}

	// The loadtest report must flow through the bit-op gate.
	code, cmpOut, cmpErr := runBench(t, "-compare", out, out)
	if code != 0 {
		t.Fatalf("-compare rejected the loadtest report: exit %d\nstdout:\n%s\nstderr:\n%s", code, cmpOut, cmpErr)
	}
}

// TestLoadtestCLIBadServer checks a dead -server URL surfaces as a
// failing run, not a hang or a zero-exit with garbage.
func TestLoadtestCLIBadServer(t *testing.T) {
	args := []string{"-exp", "loadtest", "-server", "http://127.0.0.1:1",
		"-degrees", "6", "-mus", "4", "-procs", "1", "-seeds", "1", "-load-requests", "1"}
	code, _, stderr := runBench(t, args...)
	if code == 0 {
		t.Fatal("loadtest against a dead server exited 0")
	}
	if !strings.Contains(stderr, "loadtest") {
		t.Fatalf("stderr does not name the failing experiment: %q", stderr)
	}
}
