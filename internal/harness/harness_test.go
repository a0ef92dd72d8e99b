package harness

import (
	"bytes"
	"strings"
	"testing"
)

func tiny() Config {
	return Config{
		Degrees: []int{8, 12},
		Mus:     []uint{4, 16},
		Procs:   []int{1, 2},
		Seeds:   []int64{1},
		Reps:    1,
		// Keep the conformance experiment to a prefix of its suite so
		// TestAllExperimentsRun stays quick; the full ≥200-case sweep
		// runs via `rootbench -exp conformance`.
		ConformanceChecks: 12,
	}
}

func TestInstanceCached(t *testing.T) {
	a := Instance(1, 10)
	b := Instance(1, 10)
	if a != b {
		t.Fatal("Instance not cached")
	}
	if a.Degree() != 10 {
		t.Fatalf("degree %d", a.Degree())
	}
}

func runExperiment(t *testing.T, name string) string {
	t.Helper()
	f, ok := Experiments[name]
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	var buf bytes.Buffer
	if err := f(&buf, tiny()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

func TestAllExperimentsRun(t *testing.T) {
	for _, name := range Names() {
		out := runExperiment(t, name)
		if len(out) == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	out := runExperiment(t, "table2")
	if !strings.Contains(out, "µ=4") || !strings.Contains(out, "µ=16") {
		t.Errorf("missing µ columns:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header line + column line + one row per degree.
	if len(lines) != 2+len(tiny().Degrees) {
		t.Errorf("unexpected row count %d:\n%s", len(lines), out)
	}
}

func TestSpeedupsContainBaselineColumn(t *testing.T) {
	out := runExperiment(t, "speedups")
	if !strings.Contains(out, "P=1") || !strings.Contains(out, "P=2") {
		t.Errorf("missing processor columns:\n%s", out)
	}
	// P=1 speedups are 1.00 by construction.
	if !strings.Contains(out, "1.00") {
		t.Errorf("missing baseline speedup:\n%s", out)
	}
	// So are simulated ones, whose work and makespan come from one run.
	cfg := tiny()
	cfg.Simulate = true
	var buf bytes.Buffer
	if err := Speedups(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 1+len(cfg.Procs) && f[0] != "n" && f[1] != "1.00" {
			t.Errorf("simulated P=1 speedup %s, want 1.00:\n%s", f[1], buf.String())
		}
	}
}

func TestMultCountsRatiosSane(t *testing.T) {
	out := runExperiment(t, "figs2to5")
	if !strings.Contains(out, "predicted") || !strings.Contains(out, "observed") {
		t.Errorf("missing columns:\n%s", out)
	}
}

func TestVsSturmSkipsLargeDegrees(t *testing.T) {
	cfg := tiny()
	cfg.Degrees = []int{8, 40}
	var buf bytes.Buffer
	if err := VsSturm(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	// A row's first field is its degree; timings and ratios elsewhere
	// in the table may contain the digits 40.
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "40" {
			t.Errorf("degree 40 should be skipped (paper: PARI capped at 30):\n%s", buf.String())
		}
	}
}

func TestNamesStable(t *testing.T) {
	a := Names()
	b := Names()
	if len(a) != len(Experiments) {
		t.Fatalf("Names() returned %d of %d", len(a), len(Experiments))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Names() not stable")
		}
	}
}
