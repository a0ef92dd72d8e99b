package harness

import (
	"testing"

	"realroots/internal/core"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/sturm"
	"time"
)

// These tests assert the *shapes* the reproduction must preserve
// (DESIGN.md §3): who wins, what grows, where the crossover falls.
// They run real workloads, so they are skipped in -short mode.

func TestShapeTimeGrowsWithDegreeAndPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	seconds := func(n int, mu uint) float64 {
		p := Instance(1, n)
		best := 1e18
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := core.FindRoots(p, core.Options{Mu: mu}); err != nil {
				t.Fatal(err)
			}
			if s := time.Since(start).Seconds(); s < best {
				best = s
			}
		}
		return best
	}
	// Table 2 shape: strong growth with n at fixed µ...
	t10, t40 := seconds(10, 16), seconds(40, 16)
	if t40 < 8*t10 {
		t.Errorf("time(n=40)/time(n=10) = %.1f, expected strong (≳ n³) growth", t40/t10)
	}
	// ... and milder growth with µ at fixed n (the paper's rows grow by
	// ~4x from µ=4 to µ=32 at small n, less at large n).
	m4, m32 := seconds(20, 4), seconds(20, 32)
	if m32 < m4 {
		t.Errorf("time should grow with µ: %.4fs at µ=4 vs %.4fs at µ=32", m4, m32)
	}
	if m32 > 20*m4 {
		t.Errorf("µ growth too strong: %.1fx", m32/m4)
	}
}

func TestShapeFigure8Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	// Figure 8: the Sturm baseline wins at small degree; the parallel
	// algorithm (even on one worker) wins for degrees above ≈ 15, with a
	// ratio that keeps growing.
	//
	// A solve at n = 10 takes about a millisecond, so one cold run or a
	// scheduler hiccup moves a best-of-3 ratio by a third. Each solver
	// runs once untimed first, and the ratio is of the best of 7
	// repetitions, the two solvers alternating within each.
	const mu, reps = 30, 7
	ratio := func(n int) float64 {
		p := Instance(1, n)
		alg := func() error {
			_, err := core.FindRoots(p, core.Options{Mu: mu})
			return err
		}
		base := func() error {
			_, err := sturm.FindRoots(p, mu, metrics.Ctx{})
			return err
		}
		timed := func(solve func() error) float64 {
			start := time.Now()
			if err := solve(); err != nil {
				t.Fatal(err)
			}
			return time.Since(start).Seconds()
		}
		timed(alg)
		timed(base)
		bestAlg, bestSturm := 1e18, 1e18
		for rep := 0; rep < reps; rep++ {
			bestAlg = min(bestAlg, timed(alg))
			bestSturm = min(bestSturm, timed(base))
		}
		return bestSturm / bestAlg
	}
	r10 := ratio(10)
	r30 := ratio(30)
	if r10 > 1.4 {
		t.Errorf("at n=10 the baseline should not lose clearly: sturm/alg = %.2f", r10)
	}
	if r30 < 1.1 {
		t.Errorf("at n=30 the algorithm should win: sturm/alg = %.2f", r30)
	}
	if r30 <= r10 {
		t.Errorf("ratio should grow with degree: %.2f at n=10 vs %.2f at n=30", r10, r30)
	}
}

func TestShapeSimulatedSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	// Tables 3-7 shape: speedup grows with P, near-linear at P=2..4,
	// clearly sublinear at P=16. Each speedup is what a simulated table
	// cell prints: the simulated work over the simulated makespan of one
	// run, so the timing noise of separate runs cannot make P=2 look
	// super-linear; the better of two repetitions counts.
	cfg := Config{Seeds: []int64{1}, Reps: 2, Simulate: true}
	sp := map[int]float64{}
	for _, w := range []int{2, 4, 8, 16} {
		s, err := cfg.simSpeedup(45, 32, w)
		if err != nil {
			t.Fatal(err)
		}
		sp[w] = s
	}
	t.Logf("simulated speedups: P=2 %.2f, P=4 %.2f, P=8 %.2f, P=16 %.2f", sp[2], sp[4], sp[8], sp[16])
	if sp[2] < 1.5 || sp[2] > 2.4 {
		t.Errorf("speedup at P=2 is %.2f, want ≈ 2", sp[2])
	}
	if sp[4] < 2.2 {
		t.Errorf("speedup at P=4 is %.2f, want ≳ 3", sp[4])
	}
	if sp[8] <= sp[4]*0.9 {
		t.Errorf("speedup should keep growing: P=4 %.2f vs P=8 %.2f", sp[4], sp[8])
	}
	if sp[16] > 16 {
		t.Errorf("speedup at P=16 is %.2f — impossible", sp[16])
	}
}

func TestShapeHybridBeatsBisectionAtHighPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	p := Instance(1, 20)
	evals := func(m interval.Method) int64 {
		var c metrics.Counters
		if _, err := core.FindRoots(p, core.Options{Mu: 256, Method: m, Counters: &c}); err != nil {
			t.Fatal(err)
		}
		rep := c.Snapshot()
		return rep.Sum(metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton).Evals
	}
	hybrid, bisect := evals(interval.MethodHybrid), evals(interval.MethodBisection)
	if hybrid >= bisect {
		t.Errorf("hybrid used %d refinement evals, bisection %d", hybrid, bisect)
	}
}
