// Package harness runs the repository's reproduction experiments: every
// table and figure of the paper's evaluation section (§5) has a runner
// here, invoked by cmd/rootbench and by the root-level benchmarks. See
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for recorded
// results.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"realroots/internal/core"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/model"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sturm"
	"realroots/internal/telemetry"
	"realroots/internal/vca"
	"realroots/internal/workload"
)

// Config selects the workload grid. The zero value is not useful; use
// Default or Quick.
type Config struct {
	Degrees []int  // polynomial degrees (paper: 10, 15, …, 70)
	Mus     []uint // precisions (paper: 4, 8, 16, 24, 32)
	Procs   []int  // worker counts (paper: 1, 2, 4, 8, 16)
	Seeds   []int64
	Reps    int // timing repetitions; the minimum is reported
	// Simulate replaces wall-clock multiprocessor timing with the
	// virtual-time scheduler simulation (sched.NewSimulatedPool): the
	// real task graph runs on one OS thread and measured task durations
	// are list-scheduled onto P virtual processors. Required to
	// reproduce the speedup experiments on hosts with fewer cores than
	// the paper's 20-processor machine. Affects the Times and Speedups
	// experiments only.
	Simulate bool
	// ConformanceChecks caps the differential-oracle case count in the
	// conformance experiment; 0 runs the full ≥200-case suite. Tests set
	// a small cap to stay fast.
	ConformanceChecks int
	// Profile selects the arithmetic profile every experiment solves
	// under (default mp.Schoolbook — the paper's cost model, which the
	// golden outputs assume). The abl2 ablation ignores it and compares
	// both profiles directly.
	Profile mp.Profile
	// ParallelMul offers the solver's huge balanced products to the
	// scheduler as panel tasks (core.Options.ParallelMul). Only
	// meaningful with the fast profile and real workers; the solver
	// ignores it under simulation or schoolbook arithmetic, and results
	// are bit-identical either way.
	ParallelMul bool
	// GridProfiles, when non-empty, makes the JSON grid experiment
	// (RunGrid) measure every cell once per listed profile, tagging each
	// cell with the profile name. Empty means just Profile.
	GridProfiles []mp.Profile
	// Ctx, if non-nil, interrupts the sweep: once it is done, every
	// experiment returns ErrInterrupted at its next grid cell, and the
	// in-flight solve itself is canceled through the solver's own
	// cancellation path. cmd/rootbench wires SIGINT to this.
	Ctx context.Context
	// Telemetry, if non-nil, attaches every solve the experiments run to
	// the hub (cmd/rootbench wires -telemetry/-slog/-metrics-out here).
	// The soak experiment creates a private hub when this is nil.
	Telemetry *telemetry.Telemetry
	// SoakSolves bounds the soak experiment by solve count; SoakDuration
	// bounds it by wall time (whichever is set; both set = whichever
	// ends first). Neither set runs the deterministic default of
	// DefaultSoakSolves solves.
	SoakSolves   int
	SoakDuration time.Duration
	// ServerURL points the loadtest experiment at a running rootd server.
	// Empty starts an in-process server on an ephemeral port, which keeps
	// the experiment hermetic (the golden-test default).
	ServerURL string
	// LoadRequests is the number of loadtest requests per grid cell
	// (default 3), LoadConcurrency the number of client goroutines
	// (default 8), and LoadTenants the number of tenants the requests are
	// spread over (default 4).
	LoadRequests    int
	LoadConcurrency int
	LoadTenants     int
	// LoadJSON, if non-nil, receives the loadtest's bench-grid/v1 report
	// with per-cell latency percentiles (cmd/rootbench wires -load-out).
	LoadJSON io.Writer
}

// ErrInterrupted reports that an experiment stopped early because
// Config.Ctx was done. The rows already written are valid results.
var ErrInterrupted = errors.New("harness: interrupted")

// interrupted is the per-cell poll every experiment loop runs.
func (cfg Config) interrupted() error {
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return ErrInterrupted
	}
	return nil
}

// Default mirrors the paper's full grid. A complete run takes a while;
// Quick is the smoke-test subset.
func Default() Config {
	var degrees []int
	for n := 10; n <= 70; n += 5 {
		degrees = append(degrees, n)
	}
	return Config{
		Degrees: degrees,
		Mus:     []uint{4, 8, 16, 24, 32},
		Procs:   []int{1, 2, 4, 8, 16},
		Seeds:   []int64{1, 2, 3},
		Reps:    1,
	}
}

// Quick is a reduced grid for smoke tests and quick looks.
func Quick() Config {
	return Config{
		Degrees: []int{10, 15, 20},
		Mus:     []uint{8, 32},
		Procs:   []int{1, 2, 4},
		Seeds:   []int64{1},
		Reps:    1,
	}
}

// instance caches workload polynomials: generating a degree-70
// characteristic polynomial is itself Θ(n⁴) work and must not be timed.
var (
	instMu    sync.Mutex
	instCache = map[[2]int64]*poly.Poly{}
)

// Instance returns the paper-style input for (seed, n): the
// characteristic polynomial of a random symmetric 0-1 matrix, cached.
func Instance(seed int64, n int) *poly.Poly {
	instMu.Lock()
	defer instMu.Unlock()
	key := [2]int64{seed, int64(n)}
	if p, ok := instCache[key]; ok {
		return p
	}
	p := workload.CharPoly01(seed, n)
	instCache[key] = p
	return p
}

// run executes one configuration and returns the wall time (minimum
// over cfg.Reps runs) and the result.
func (cfg Config) run(p *poly.Poly, mu uint, workers int, counters *metrics.Counters) (time.Duration, *core.Result, error) {
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(math.MaxInt64)
	var res *core.Result
	for r := 0; r < reps; r++ {
		if err := cfg.interrupted(); err != nil {
			return 0, nil, err
		}
		if counters != nil && r == 0 {
			counters.Reset()
		}
		var cnt *metrics.Counters
		if r == 0 {
			cnt = counters
		}
		start := time.Now()
		out, err := core.FindRoots(p, core.Options{Mu: mu, Workers: workers, Counters: cnt, Ctx: cfg.Ctx, Profile: cfg.Profile, Telemetry: cfg.Telemetry})
		if err != nil {
			if errors.Is(err, core.ErrCanceled) || errors.Is(err, core.ErrDeadline) {
				return 0, nil, ErrInterrupted
			}
			return 0, nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		res = out
	}
	return best, res, nil
}

// avgSeconds runs every seed and returns the mean time in seconds:
// wall time normally, or the virtual makespan in simulation mode.
func (cfg Config) avgSeconds(n int, mu uint, workers int) (float64, error) {
	var total float64
	for _, seed := range cfg.Seeds {
		if cfg.Simulate {
			runs, err := cfg.simulate(seed, n, mu, workers)
			if err != nil {
				return 0, err
			}
			best := math.Inf(1)
			for _, st := range runs {
				best = min(best, st.SimMakespan.Seconds())
			}
			total += best
			continue
		}
		d, _, err := cfg.run(Instance(seed, n), mu, workers, nil)
		if err != nil {
			return 0, fmt.Errorf("n=%d µ=%d P=%d seed=%d: %w", n, mu, workers, seed, err)
		}
		total += d.Seconds()
	}
	return total / float64(len(cfg.Seeds)), nil
}

// simSpeedup returns the simulated speedup on the given number of
// virtual processors, averaged over the seeds: a run's SimWork (its
// one-processor makespan) over its SimMakespan, the better of cfg.Reps
// runs per seed. Both times list-schedule the same run's measured
// tasks, so the timing noise between separate runs cannot enter the
// ratio, and P=1 reads exactly 1.
func (cfg Config) simSpeedup(n int, mu uint, workers int) (float64, error) {
	var total float64
	for _, seed := range cfg.Seeds {
		runs, err := cfg.simulate(seed, n, mu, workers)
		if err != nil {
			return 0, err
		}
		best := 0.0
		for _, st := range runs {
			best = max(best, st.SimWork.Seconds()/st.SimMakespan.Seconds())
		}
		total += best
	}
	return total / float64(len(cfg.Seeds)), nil
}

// simulate solves seed's degree-n instance cfg.Reps times (at least
// once) on the given number of virtual processors and returns each
// run's statistics.
func (cfg Config) simulate(seed int64, n int, mu uint, workers int) ([]core.Stats, error) {
	p := Instance(seed, n)
	reps := max(cfg.Reps, 1)
	runs := make([]core.Stats, 0, reps)
	for r := 0; r < reps; r++ {
		if err := cfg.interrupted(); err != nil {
			return nil, err
		}
		res, err := core.FindRoots(p, core.Options{Mu: mu, SimulateWorkers: workers, Profile: cfg.Profile, Telemetry: cfg.Telemetry})
		if err != nil {
			return nil, fmt.Errorf("n=%d µ=%d P=%d seed=%d: %w", n, mu, workers, seed, err)
		}
		runs = append(runs, res.Stats)
	}
	return runs, nil
}

// mDigits returns the paper's m(n) column: the coefficient size of the
// degree-n instances in decimal digits (averaged over seeds). The
// paper's empirical m(n) values — m(70) = 36 — match this unit: our
// degree-70 instances have ≈118-bit ≈ 36-digit coefficients.
func (cfg Config) mDigits(n int) int {
	total := 0.0
	for _, seed := range cfg.Seeds {
		total += float64(Instance(seed, n).MaxCoeffBits()) * math.Log10(2)
	}
	return int(math.Ceil(total / float64(len(cfg.Seeds))))
}

// Table2 reproduces Table 2: single-processor running times for every
// (n, µ) in the grid, with the empirical m(n) column.
func Table2(w io.Writer, cfg Config) error {
	cfg.Simulate = false // single-processor wall time is always real
	fmt.Fprintln(w, "Table 2: single-processor running times (seconds)")
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "n\tm(n)\t")
	for _, mu := range cfg.Mus {
		fmt.Fprintf(tw, "µ=%d\t", mu)
	}
	fmt.Fprintln(tw)
	for _, n := range cfg.Degrees {
		fmt.Fprintf(tw, "%d\t%d\t", n, cfg.mDigits(n))
		for _, mu := range cfg.Mus {
			s, err := cfg.avgSeconds(n, mu, 1)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%.3f\t", s)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Times reproduces Tables 8-12 (and the data behind Figures 9-13):
// running times for every (n, P) pair at each µ.
func Times(w io.Writer, cfg Config) error {
	for _, mu := range cfg.Mus {
		fmt.Fprintf(w, "Running times (seconds) for µ = %d (Tables 8-12 / Figures 9-13)\n", mu)
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "n\t")
		for _, p := range cfg.Procs {
			fmt.Fprintf(tw, "P=%d\t", p)
		}
		fmt.Fprintln(tw)
		for _, n := range cfg.Degrees {
			fmt.Fprintf(tw, "%d\t", n)
			for _, procs := range cfg.Procs {
				s, err := cfg.avgSeconds(n, mu, procs)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%.3f\t", s)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Speedups reproduces Tables 3-7: speedups relative to the one-worker
// run of the parallel program. Wall-clock cells divide the P=1 time by
// the time on P workers; simulated cells take both from one run (see
// simSpeedup).
func Speedups(w io.Writer, cfg Config) error {
	for _, mu := range cfg.Mus {
		fmt.Fprintf(w, "Speedups vs 1 worker for µ = %d (Tables 3-7)\n", mu)
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "n\t")
		for _, p := range cfg.Procs {
			fmt.Fprintf(tw, "P=%d\t", p)
		}
		fmt.Fprintln(tw)
		for _, n := range cfg.Degrees {
			speedups, err := cfg.speedupRow(n, mu)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t", n)
			for _, s := range speedups {
				fmt.Fprintf(tw, "%.2f\t", s)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// speedupRow returns one Speedups row: the degree-n speedup for each of
// cfg.Procs at precision mu.
func (cfg Config) speedupRow(n int, mu uint) ([]float64, error) {
	row := make([]float64, len(cfg.Procs))
	if cfg.Simulate {
		for i, procs := range cfg.Procs {
			s, err := cfg.simSpeedup(n, mu, procs)
			if err != nil {
				return nil, err
			}
			row[i] = s
		}
		return row, nil
	}
	// One measurement per cell; the P=1 cell itself is the baseline
	// (falling back to the first column), so the baseline column reads
	// exactly 1.00 as in the paper.
	base := -1.0
	for i, procs := range cfg.Procs {
		s, err := cfg.avgSeconds(n, mu, procs)
		if err != nil {
			return nil, err
		}
		row[i] = s
		if procs == 1 {
			base = s
		}
	}
	if base < 0 {
		base = row[0]
	}
	for i, s := range row {
		row[i] = base / s
	}
	return row, nil
}

// params builds the model parameters for an instance.
func params(p *poly.Poly, mu uint) model.Params {
	n := p.Degree()
	return model.Params{
		N:  n,
		M:  p.MaxCoeffBits(),
		Mu: mu,
		R:  p.RootBound().BitLen() - 1,
		// Eigenvalues of symmetric 0-1 matrices lie within ±n.
		Range: int(math.Ceil(math.Log2(float64(2 * n)))),
	}
}

// MultCounts reproduces Figures 2-5: predicted vs observed
// multiplication counts, per phase and in total, for each µ.
func MultCounts(w io.Writer, cfg Config) error {
	for _, mu := range cfg.Mus {
		fmt.Fprintf(w, "Predicted vs observed multiplication counts, µ = %d (Figures 2-5)\n", mu)
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "n\tpredicted\tobserved\tratio\tpred-rem\tobs-rem\tpred-tree\tobs-tree\tpred-intv\tobs-intv\t")
		for _, n := range cfg.Degrees {
			p := Instance(cfg.Seeds[0], n)
			var c metrics.Counters
			if _, _, err := cfg.run(p, mu, 1, &c); err != nil {
				return err
			}
			rep := c.Snapshot()
			pred := params(p, mu).Predict()
			obsIntv := rep.Sum(metrics.PhasePreInterval, metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton).Muls
			predIntv := pred[metrics.PhasePreInterval].Muls + pred[metrics.PhaseSieve].Muls +
				pred[metrics.PhaseBisection].Muls + pred[metrics.PhaseNewton].Muls
			obsTot := rep.Total().Muls
			predTot := pred.Total().Muls
			fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.2f\t%.0f\t%d\t%.0f\t%d\t%.0f\t%d\t\n",
				n, predTot, obsTot, predTot/float64(obsTot),
				pred[metrics.PhaseRemainder].Muls, rep.Phases[metrics.PhaseRemainder].Muls,
				pred[metrics.PhaseTree].Muls, rep.Phases[metrics.PhaseTree].Muls,
				predIntv, obsIntv)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// BisectionCounts reproduces Figure 6: predicted vs observed
// multiplication counts in the bisection sub-phase at the largest µ in
// the grid (the paper uses µ = 32).
func BisectionCounts(w io.Writer, cfg Config) error {
	mu := cfg.Mus[len(cfg.Mus)-1]
	fmt.Fprintf(w, "Bisection sub-phase multiplication counts, µ = %d (Figure 6)\n", mu)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "n\tpredicted\tobserved\tratio\t")
	for _, n := range cfg.Degrees {
		p := Instance(cfg.Seeds[0], n)
		var c metrics.Counters
		if _, _, err := cfg.run(p, mu, 1, &c); err != nil {
			return err
		}
		obs := c.Snapshot().Phases[metrics.PhaseBisection].Muls
		pred := params(p, mu).IntervalPhase(metrics.PhaseBisection).Muls
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.2f\t\n", n, pred, obs, pred/float64(obs))
	}
	return tw.Flush()
}

// BisectionBits reproduces Figure 7: predicted vs observed bit
// complexity of the bisection sub-phase multiplications. The predictions
// use the Collins size bounds and are expected to be weak upper bounds —
// that gap is the paper's own conclusion.
func BisectionBits(w io.Writer, cfg Config) error {
	mu := cfg.Mus[len(cfg.Mus)-1]
	fmt.Fprintf(w, "Bisection sub-phase bit complexity, µ = %d (Figure 7)\n", mu)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "n\tpredicted\tobserved\tpred/obs\t")
	for _, n := range cfg.Degrees {
		p := Instance(cfg.Seeds[0], n)
		var c metrics.Counters
		if _, _, err := cfg.run(p, mu, 1, &c); err != nil {
			return err
		}
		obs := c.Snapshot().Phases[metrics.PhaseBisection].MulBits
		pred := params(p, mu).IntervalPhase(metrics.PhaseBisection).Bits
		fmt.Fprintf(tw, "%d\t%.3g\t%.3g\t%.1f\t\n", n, pred, float64(obs), pred/float64(obs))
	}
	return tw.Flush()
}

// VsSturm reproduces Figure 8: the parallel algorithm on one worker
// against the sequential Sturm baseline (the PARI stand-in), at µ = 30.
// A second sequential baseline — Descartes/VCA isolation — is reported
// alongside, since modern comparators (FLINT et al.) are VCA-family.
func VsSturm(w io.Writer, cfg Config) error {
	const mu = 30
	fmt.Fprintf(w, "One-worker algorithm vs sequential baselines, µ = %d (Figure 8)\n", mu)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "n\talgorithm(s)\tsturm(s)\tvca(s)\tsturm/alg\tvca/alg\t")
	for _, n := range cfg.Degrees {
		if n > 30 {
			continue // the paper could not run PARI beyond degree 30
		}
		algo, err := cfg.avgSeconds(n, mu, 1)
		if err != nil {
			return err
		}
		var sturmT, vcaT float64
		for _, seed := range cfg.Seeds {
			if err := cfg.interrupted(); err != nil {
				return err
			}
			p := Instance(seed, n)
			start := time.Now()
			if _, err := sturm.FindRoots(p, mu, metrics.Ctx{}); err != nil {
				return fmt.Errorf("sturm n=%d seed=%d: %w", n, seed, err)
			}
			sturmT += time.Since(start).Seconds()
			start = time.Now()
			if _, err := vca.FindRoots(p, mu, metrics.Ctx{}); err != nil {
				return fmt.Errorf("vca n=%d seed=%d: %w", n, seed, err)
			}
			vcaT += time.Since(start).Seconds()
		}
		sturmT /= float64(len(cfg.Seeds))
		vcaT /= float64(len(cfg.Seeds))
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\t%.2f\t%.2f\t\n", n, algo, sturmT, vcaT, sturmT/algo, vcaT/algo)
	}
	return tw.Flush()
}

// Table1 verifies Table 1 empirically: it fits growth exponents of the
// measured phase costs against n and prints them next to the paper's
// asymptotic claims.
func Table1(w io.Writer, cfg Config) error {
	mu := cfg.Mus[len(cfg.Mus)-1]
	type point struct {
		n                  int
		remMul, treeMul    float64
		remBits, treeBits  float64
		intvMul, intvEvals float64
	}
	var pts []point
	for _, n := range cfg.Degrees {
		p := Instance(cfg.Seeds[0], n)
		var c metrics.Counters
		if _, _, err := cfg.run(p, mu, 1, &c); err != nil {
			return err
		}
		rep := c.Snapshot()
		intv := rep.Sum(metrics.PhasePreInterval, metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton)
		pts = append(pts, point{
			n:        n,
			remMul:   float64(rep.Phases[metrics.PhaseRemainder].Muls),
			treeMul:  float64(rep.Phases[metrics.PhaseTree].Muls),
			remBits:  float64(rep.Phases[metrics.PhaseRemainder].MulBits),
			treeBits: float64(rep.Phases[metrics.PhaseTree].MulBits),
			intvMul:  float64(intv.Muls),
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].n < pts[j].n })
	fit := func(get func(point) float64) float64 {
		// Least-squares slope of log cost vs log n.
		var sx, sy, sxx, sxy float64
		for _, pt := range pts {
			x, y := math.Log(float64(pt.n)), math.Log(get(pt))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		k := float64(len(pts))
		return (k*sxy - sx*sy) / (k*sxx - sx*sx)
	}
	fmt.Fprintf(w, "Table 1: measured growth exponents vs the paper's asymptotics (µ = %d)\n", mu)
	fmt.Fprintln(w, "(On this workload m(n) itself grows ≈ linearly in n — see Table 2's m(n)")
	fmt.Fprintln(w, "column — so the paper's O(n⁴(m+log n)²) bit bounds behave as ≈ n⁶ here.)")
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\tquantity\tpaper\ton this workload\tmeasured exponent\t")
	fmt.Fprintf(tw, "remainder\tmultiplications\tO(n²)\tn²\t%.2f\t\n", fit(func(p point) float64 { return p.remMul }))
	fmt.Fprintf(tw, "remainder\tbit complexity\tO(n⁴(m+log n)²)\t≈n⁶\t%.2f\t\n", fit(func(p point) float64 { return p.remBits }))
	fmt.Fprintf(tw, "tree\tmultiplications\tO(n²)\tn²\t%.2f\t\n", fit(func(p point) float64 { return p.treeMul }))
	fmt.Fprintf(tw, "tree\tbit complexity\tO(n⁴(m+log n)²)\t≈n⁶\t%.2f\t\n", fit(func(p point) float64 { return p.treeBits }))
	fmt.Fprintf(tw, "interval\tmultiplications\tO(n²(log n + log X))\tn²·polylog\t%.2f\t\n", fit(func(p point) float64 { return p.intvMul }))
	return tw.Flush()
}

// Phases prints the per-phase share of multiplications and of
// multiplication bit complexity across the degree range — the balance
// the paper's §4 analysis predicts (remainder and tree phases dominate
// the bit complexity as n grows, while the interval phase dominates
// the multiplication count at high µ).
func Phases(w io.Writer, cfg Config) error {
	mu := cfg.Mus[len(cfg.Mus)-1]
	fmt.Fprintf(w, "Per-phase share of multiplications and bit complexity (µ = %d)\n", mu)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "n\trem-muls%\ttree-muls%\tintv-muls%\trem-bits%\ttree-bits%\tintv-bits%\t")
	for _, n := range cfg.Degrees {
		p := Instance(cfg.Seeds[0], n)
		var c metrics.Counters
		if _, _, err := cfg.run(p, mu, 1, &c); err != nil {
			return err
		}
		rep := c.Snapshot()
		intv := rep.Sum(metrics.PhasePreInterval, metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton)
		tot := rep.Total()
		pct := func(a, b int64) float64 {
			if b == 0 {
				return 0
			}
			return 100 * float64(a) / float64(b)
		}
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t\n", n,
			pct(rep.Phases[metrics.PhaseRemainder].Muls, tot.Muls),
			pct(rep.Phases[metrics.PhaseTree].Muls, tot.Muls),
			pct(intv.Muls, tot.Muls),
			pct(rep.Phases[metrics.PhaseRemainder].MulBits, tot.MulBits),
			pct(rep.Phases[metrics.PhaseTree].MulBits, tot.MulBits),
			pct(intv.MulBits, tot.MulBits))
	}
	return tw.Flush()
}

// Ablations runs the repository's own design-choice experiments:
// interval methods, multiplication algorithms, and sequential vs
// parallel precomputation (DESIGN.md experiments abl1-abl3).
func Ablations(w io.Writer, cfg Config) error {
	n := cfg.Degrees[len(cfg.Degrees)-1]
	mu := cfg.Mus[len(cfg.Mus)-1]
	p := Instance(cfg.Seeds[0], n)

	fmt.Fprintf(w, "Ablation 1: interval-refinement methods (n=%d, µ=%d, 1 worker)\n", n, mu)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "method\ttime(s)\trefinement evals\t")
	for _, m := range []interval.Method{interval.MethodHybrid, interval.MethodBisection, interval.MethodNewton} {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		var c metrics.Counters
		start := time.Now()
		if _, err := core.FindRoots(p, core.Options{Mu: mu, Method: m, Counters: &c}); err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		evals := c.Snapshot().Sum(metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton).Evals
		fmt.Fprintf(tw, "%v\t%.3f\t%d\t\n", m, el, evals)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nAblation 2: schoolbook vs Karatsuba multiplication (n=%d, µ=%d)\n", n, mu)
	tw = tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "multiplier\ttime(s)\t")
	for _, prof := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		start := time.Now()
		if _, err := core.FindRoots(p, core.Options{Mu: mu, Profile: prof}); err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		name := "schoolbook (paper's mp)"
		if prof == mp.Fast {
			name = "karatsuba"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t\n", name, el)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nAblation 3: precomputation scheduling (n=%d, µ=%d, %d workers)\n", n, mu, maxInt(cfg.Procs))
	tw = tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "precompute\ttotal(s)\tprecompute(s)\t")
	for _, seqPre := range []bool{false, true} {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		res, err := core.FindRoots(p, core.Options{Mu: mu, Workers: maxInt(cfg.Procs), SequentialPrecompute: seqPre})
		if err != nil {
			return err
		}
		name := "parallel"
		if seqPre {
			name = "sequential (run-time option)"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t\n", name, res.Stats.Total.Seconds(), res.Stats.Precompute.Seconds())
	}
	return tw.Flush()
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Experiments maps experiment ids (DESIGN.md §3) to runners.
var Experiments = map[string]func(io.Writer, Config) error{
	"conformance": Conformance,
	"phases":      Phases,
	"table1":      Table1,
	"table2":      Table2,
	"figs2to5":    MultCounts,
	"fig6":        BisectionCounts,
	"fig7":        BisectionBits,
	"fig8":        VsSturm,
	"times":       Times,
	"speedups":    Speedups,
	"ablations":   Ablations,
	"utilization": Utilization,
	"soak":        Soak,
	"loadtest":    Loadtest,
}

// Names returns the experiment ids in a stable order.
func Names() []string {
	names := make([]string, 0, len(Experiments))
	for name := range Experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
