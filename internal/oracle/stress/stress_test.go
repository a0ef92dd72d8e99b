package stress

import (
	"testing"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// TestPSweepDeterminism is the DESIGN.md §5 promise as an executable
// check: one task graph, P ∈ {1,2,4,8,16}, identical roots and
// identical per-phase multiplication counts. Run with -race in CI.
func TestPSweepDeterminism(t *testing.T) {
	inputs := []struct {
		name string
		p    *poly.Poly
		mu   uint
		seed int64
	}{
		{"charpoly16-mu16", workload.CharPoly01(1, 16), 16, 1},
		{"charpoly12-mu32", workload.CharPoly01(2, 12), 32, 2},
		// Repeated roots: the remainder sequence stops on the gcd, then
		// Yun's factors are solved on the same pool.
		{"multiplicities14-mu16", workload.WithMultiplicities(1, 7, 12, 3), 16, 3},
		{"charpoly10-squared-mu16", square(workload.CharPoly01(3, 10)), 16, 4},
	}
	if testing.Short() {
		inputs = inputs[:1]
	}
	for _, tc := range inputs {
		t.Run(tc.name, func(t *testing.T) {
			if err := SweepAndVerify(tc.p, tc.mu, DefaultWorkers, tc.seed); err != nil {
				t.Error(err)
			}
		})
	}
}

func square(p *poly.Poly) *poly.Poly { return p.Mul(p) }

func TestSweepRecordsTasks(t *testing.T) {
	p := workload.Tridiagonal(3, 10, 5)
	runs, err := Sweep(p, 8, []int{1, 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Tasks != 0 {
		t.Errorf("sequential run executed %d pool tasks, want 0", runs[0].Tasks)
	}
	if runs[1].Tasks == 0 {
		t.Error("parallel run executed no pool tasks")
	}
	if runs[0].Muls[metrics.PhaseRemainder] == 0 {
		t.Error("no remainder-phase multiplications recorded")
	}
}

func TestVerifyDetectsMismatch(t *testing.T) {
	p := workload.Wilkinson(8)
	runs, err := Sweep(p, 8, []int{1, 2}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(runs); err != nil {
		t.Fatalf("genuine sweep failed verification: %v", err)
	}
	// Teeth: perturb a count, then a root.
	bad := append([]Run(nil), runs...)
	bad[1].Muls[metrics.PhaseTree]++
	if err := Verify(bad); err == nil {
		t.Error("perturbed multiplication count went undetected")
	}
	bad = append([]Run(nil), runs...)
	rootsCopy := append([]dyadic.Dyadic(nil), runs[1].Roots...)
	rootsCopy[0] = rootsCopy[0].Add(rootsCopy[0])
	bad[1].Roots = rootsCopy
	if err := Verify(bad); err == nil {
		t.Error("perturbed root went undetected")
	}
	if err := Verify(runs[:1]); err == nil {
		t.Error("single-run sweep accepted")
	}
}
