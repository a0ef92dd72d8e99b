package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/workload"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden from the current counters")

// TestCounterReportGolden pins every counter a solve records, not only
// bitOps: per phase the multiplication, division, addition and
// evaluation counts, the model and actual costs, the operand-size
// histogram, the Fast tiers and the parallel-path products. One Fast
// solve of a §5 characteristic polynomial (n = 40, µ = 16, two
// workers) and one paper-profile solve (n = 24, µ = 32) cover both
// profiles' recording.
func TestCounterReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("degree-40 solve")
	}
	cases := []struct {
		name    string
		n       int
		mu      uint
		profile mp.Profile
	}{
		{"fast-n40-mu16", 40, 16, mp.Fast},
		{"paper-n24-mu32", 24, 32, mp.Schoolbook},
	}
	var b strings.Builder
	for _, tc := range cases {
		var counters metrics.Counters
		_, err := FindRoots(workload.CharPoly01(1, tc.n), Options{
			Mu: tc.mu, Workers: 2, Profile: tc.profile, Counters: &counters,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := counters.Snapshot()
		fmt.Fprintf(&b, "# %s\n", tc.name)
		for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
			if r.Phases[p] != (metrics.PhaseReport{}) {
				fmt.Fprintf(&b, "%s %+v\n", p, r.Phases[p])
			}
		}
		fmt.Fprintf(&b, "total %+v\n", r.Total())
	}
	got := b.String()
	path := filepath.Join("testdata", "counters.golden")
	if *updateCounters {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/core -run TestCounterReportGolden -update-counters`): %v", err)
	}
	if got != string(want) {
		t.Errorf("counters differ from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
