// Package realroots computes arbitrarily precise approximations to the
// real roots of integer polynomials whose roots are all real, using the
// parallel algorithm of Narendran & Tiwari (SPAA 1992), itself a
// practical version of the Ben-Or–Tiwari NC root-isolation algorithm.
//
// Given a degree-n polynomial with integer coefficients and only real
// roots, FindRoots returns the µ-approximation 2^-µ·⌈2^µ·x⌉ of every
// distinct root x, computed entirely in exact integer arithmetic — the
// results are deterministic and bit-for-bit correct at the requested
// precision, for any worker count.
//
// The algorithm isolates roots with a divide-and-conquer tree of
// interleaving polynomials derived from the polynomial remainder
// sequence, then solves each one-root interval problem with a hybrid
// double-exponential-sieve / bisection / Newton method; all stages run
// on a dynamic task-queue scheduler whose worker count is the Workers
// option.
//
// Quick start:
//
//	// p(x) = x² - 2
//	res, err := realroots.FindRootsInt64([]int64{-2, 0, 1}, &realroots.Options{Precision: 32})
//	// res.Roots ≈ [-√2, √2] as exact big.Rat values with 32-bit precision
package realroots

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/core"
	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/model"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/sturm"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// Method selects the interval-refinement strategy.
type Method int

const (
	// Hybrid is the paper's method: double-exponential sieve, then
	// ⌈log₂(10d²)⌉ bisections, then safeguarded Newton. The default.
	Hybrid Method = iota
	// Bisection refines by pure bisection (slower at high precision;
	// useful as a baseline).
	Bisection
	// Newton starts safeguarded Newton immediately.
	Newton
)

// String returns the method name accepted by ParseMethod.
func (m Method) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case Bisection:
		return "bisection"
	case Newton:
		return "newton"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod maps a method name ("hybrid", "bisection", or "newton")
// to its value — the inverse of Method.String, for flag and request
// parsing (cmd/rootd accepts these names in solve requests).
func ParseMethod(s string) (Method, error) {
	switch s {
	case "hybrid":
		return Hybrid, nil
	case "bisection":
		return Bisection, nil
	case "newton":
		return Newton, nil
	}
	return 0, fmt.Errorf("realroots: unknown method %q (want hybrid, bisection, or newton)", s)
}

// Profile selects the big-integer arithmetic algorithms used by a run.
// Every profile computes bit-identical roots (the arithmetic is exact
// either way) and records identical operation counts and model bit
// costs; only the wall time and the reported actual bit costs differ.
// The profile is carried per run — never in package state — so
// concurrent runs with different profiles are race-free.
type Profile int

const (
	// ProfilePaper (the default) is schoolbook multiplication and Knuth
	// division — the quadratic cost model of the paper's UNIX "mp"
	// substrate (§3.3). Use it when reproducing the paper's measurements.
	ProfilePaper Profile = iota
	// ProfileFast enables the subquadratic kernels: block-decomposed
	// Karatsuba multiplication and Burnikel–Ziegler division.
	ProfileFast
)

// String returns the profile name accepted by ParseProfile.
func (p Profile) String() string {
	if p == ProfileFast {
		return "fast"
	}
	return "paper"
}

// ParseProfile maps a profile name ("paper"/"schoolbook" or "fast") to
// its value — the inverse of Profile.String, for flag and request
// parsing (cmd/rootd accepts these names in solve requests).
func ParseProfile(s string) (Profile, error) {
	pr, err := mp.ParseProfile(s)
	if err != nil {
		return 0, fmt.Errorf("realroots: unknown profile %q (want paper, schoolbook, or fast)", s)
	}
	return Profile(pr), nil
}

// EstimateBitOps predicts the bit-operation cost (the Options.MaxBitOps
// measure: Σ bitlen·bitlen over big-integer multiplications and
// divisions under the paper's schoolbook model) of solving a degree-n
// polynomial with coeffBits-bit coefficients at precision mu. It is an
// a-priori upper-end estimate derived from the paper's §4 cost
// analysis; cmd/rootd uses it as the admission-control cost of a solve
// request before running anything. Callers can use it to size
// Options.MaxBitOps budgets or predict whether a request will be
// admitted by a loaded server.
func EstimateBitOps(degree, coeffBits int, mu uint) int64 {
	return model.EstimateBitOps(degree, coeffBits, mu)
}

// Options configures a root-finding run. The zero value (and a nil
// *Options) requests 32 bits of precision on a single worker with the
// hybrid method.
type Options struct {
	// Precision is µ: each returned root is the exact dyadic rational
	// 2^-µ·⌈2^µ·x⌉ for the true root x. Zero means 32.
	Precision uint
	// Workers is the number of parallel workers (the paper's processor
	// count); 0 or 1 runs sequentially.
	Workers int
	// Method selects the interval-refinement strategy.
	Method Method
	// SequentialPrecompute forces the remainder-sequence stage to run
	// sequentially even on a parallel run (the paper's run-time option).
	SequentialPrecompute bool
	// Profile selects the arithmetic algorithms: ProfilePaper (default)
	// or ProfileFast. Roots and recorded operation counts are identical
	// under every profile.
	Profile Profile
	// ParallelMul, with ProfileFast and Workers > 1, additionally lets a
	// single huge multiplication (≳100k-bit operands, reached around
	// degree 100 at 64-bit precision) be split into panels the worker
	// pool computes concurrently, instead of serializing one worker.
	// Roots are bit-identical with or without it; ignored under other
	// profiles or worker counts.
	ParallelMul bool
	// Timeout, if positive, bounds the run's wall time. An expired
	// timeout aborts the run with ErrDeadline and a partial Result
	// (stats only, no roots). Context-taking entry points compose it
	// with the caller's context.
	Timeout time.Duration
	// MaxBitOps, if positive, bounds the run's total bit operations
	// (Σ bitlen·bitlen over big-integer multiplications and divisions,
	// the paper's §4 cost measure). A run that exceeds it aborts with
	// ErrBudgetExceeded and a partial Result.
	MaxBitOps int64
	// Tracer, if non-nil, records a structured execution trace of the
	// run: pipeline phase spans, per-worker task timelines, and queue
	// depth samples. Create one with NewTracer, run the solver, then
	// export with Tracer.WriteChrome (chrome://tracing / Perfetto JSON)
	// or aggregate with Tracer.Summarize. A Tracer is for one run at a
	// time; reuse across sequential runs concatenates their spans on a
	// shared timeline. Nil (the default) disables tracing and adds no
	// allocations to the solver hot path.
	Tracer *Tracer
	// Telemetry, if non-nil, attaches the run to an always-on telemetry
	// hub: a structured slog record per solve lifecycle event (start,
	// budget trip, finish) and the run's metrics folded into a
	// Prometheus-scrapable registry. Create one hub per process with
	// NewTelemetry and share it across runs; serve its endpoints with
	// Telemetry.Serve. Unlike Tracer, a hub is designed to stay
	// attached in production: its memory is bounded and nil (the
	// default) adds no allocations to the solver hot path.
	Telemetry *Telemetry
	// RequestID, if non-empty, names the external request this solve
	// serves (rootd forwards the client's X-Request-Id here). The ID is
	// stamped on the structured log records (including the finish
	// record that carries a task panic's value) and on the trace's
	// spans, so one ID recovers the run from either.
	RequestID string
}

// Tracer records wall-clock spans of a solver run; see Options.Tracer.
// Methods on a nil *Tracer are no-ops.
type Tracer = trace.Tracer

// NewTracer returns an empty Tracer whose epoch (trace time zero) is
// the moment of the call.
func NewTracer() *Tracer { return trace.New() }

// Telemetry is an always-on observability hub: structured solve logs
// and a Prometheus-exposition metrics registry; see Options.Telemetry.
// Methods on a nil *Telemetry are allocation-free no-ops.
type Telemetry = telemetry.Telemetry

// TelemetryConfig configures NewTelemetry: an optional slog logger for
// the structured event log.
type TelemetryConfig = telemetry.Config

// NewTelemetry creates a telemetry hub. One hub serves a whole
// process; concurrent runs interleave safely.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

func (o *Options) coreOptions() core.Options {
	opts := core.Options{Mu: 32, Method: interval.MethodHybrid}
	if o == nil {
		return opts
	}
	if o.Precision > 0 {
		opts.Mu = o.Precision
	}
	opts.Workers = o.Workers
	opts.ParallelMul = o.ParallelMul
	opts.SequentialPrecompute = o.SequentialPrecompute
	opts.MaxBitOps = o.MaxBitOps
	opts.Tracer = o.Tracer
	opts.Telemetry = o.Telemetry
	opts.RequestID = o.RequestID
	// Direct cast: out-of-range values survive the mapping and are
	// rejected by core's option validation.
	opts.Profile = mp.Profile(o.Profile)
	switch o.Method {
	case Bisection:
		opts.Method = interval.MethodBisection
	case Newton:
		opts.Method = interval.MethodNewton
	}
	return opts
}

// ErrNotAllReal reports that the input polynomial has non-real roots,
// which the algorithm's precondition excludes. (Use a general-purpose
// isolator, or deflate the complex part, for such inputs.)
var ErrNotAllReal = errors.New("realroots: polynomial does not have all real roots")

// Typed resilience errors. A run cut short by its context, timeout, or
// budget returns one of these (match with errors.Is) together with a
// partial Result carrying the run statistics gathered so far — but no
// roots: the solver never returns a root it has not fully verified.
var (
	// ErrCanceled reports that the caller's context was canceled.
	ErrCanceled = core.ErrCanceled
	// ErrDeadline reports that Options.Timeout or the caller context's
	// deadline expired.
	ErrDeadline = core.ErrDeadline
	// ErrBudgetExceeded reports that the run spent more than
	// Options.MaxBitOps bit operations.
	ErrBudgetExceeded = core.ErrBudgetExceeded
	// ErrInvalidOptions is matched by every option-validation error.
	ErrInvalidOptions = core.ErrInvalidOptions
)

// A Root is one distinct real root at the requested precision.
type Root struct {
	// Value is the exact µ-approximation as a rational number with a
	// power-of-two denominator.
	Value *big.Rat
	// Multiplicity is the root's multiplicity in the input polynomial
	// (1 unless the input had repeated roots).
	Multiplicity int
}

// String renders the root's exact rational value.
func (r Root) String() string { return r.Value.RatString() }

// Float64 returns the nearest float64 to the root approximation.
func (r Root) Float64() float64 {
	f, _ := r.Value.Float64()
	return f
}

// Decimal renders the root with the given number of decimal digits
// (truncated toward zero).
func (r Root) Decimal(digits int) string {
	return dyadicOf(r.Value).Decimal(digits)
}

func dyadicOf(v *big.Rat) dyadic.Dyadic {
	den := v.Denom()
	scale := uint(den.BitLen() - 1)
	num := new(mp.Int).SetBig(v.Num())
	return dyadic.New(num, scale)
}

// A Result reports the roots and run statistics.
type Result struct {
	// Roots holds the distinct real roots in ascending order.
	Roots []Root
	// Degree is the input degree; Distinct the number of distinct roots.
	Degree, Distinct int
	// Precision is the µ actually used.
	Precision uint
	// Elapsed is the total wall time; Precompute and TreeSolve split it
	// into the paper's two stages.
	Elapsed, Precompute, TreeSolve time.Duration
}

// FindRoots computes all distinct real roots of the polynomial with the
// given coefficients (ascending degree order: coeffs[i] multiplies x^i),
// with multiplicities. The polynomial must be non-constant and have
// only real roots; otherwise ErrNotAllReal (or an input-validation
// error) is returned.
func FindRoots(coeffs []*big.Int, opts *Options) (*Result, error) {
	return FindRootsContext(context.Background(), coeffs, opts)
}

// FindRootsContext is FindRoots under a caller-supplied context:
// canceling ctx aborts the run (including all scheduler workers) with
// ErrCanceled, a ctx deadline maps to ErrDeadline, and either composes
// with Options.Timeout. The returned partial Result carries the run
// statistics gathered before the interruption, but never roots.
func FindRootsContext(ctx context.Context, coeffs []*big.Int, opts *Options) (*Result, error) {
	c := make([]*mp.Int, len(coeffs))
	for i, v := range coeffs {
		if v == nil {
			return nil, fmt.Errorf("realroots: nil coefficient at degree %d", i)
		}
		c[i] = new(mp.Int).SetBig(v)
	}
	return findRoots(ctx, poly.New(c...), opts)
}

// FindRootsInt64 is FindRoots for small coefficients.
func FindRootsInt64(coeffs []int64, opts *Options) (*Result, error) {
	return findRoots(context.Background(), poly.FromInt64s(coeffs...), opts)
}

// withTimeout composes the caller's context with Options.Timeout.
func withTimeout(ctx context.Context, o *Options) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o != nil && o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// partialResult converts core's stats-only Result of an interrupted run.
func partialResult(res *core.Result, degree int, mu uint, start time.Time) *Result {
	if res == nil {
		return nil
	}
	return &Result{
		Degree:     degree,
		Precision:  mu,
		Elapsed:    time.Since(start),
		Precompute: res.Stats.Precompute,
		TreeSolve:  res.Stats.TreeSolve,
	}
}

func findRoots(ctx context.Context, p *poly.Poly, opts *Options) (*Result, error) {
	if p.Degree() < 1 {
		return nil, fmt.Errorf("realroots: polynomial of degree %d has no roots", p.Degree())
	}
	return solve(ctx, p.Degree(), opts, func(co core.Options) (*core.Result, error) {
		return core.FindRoots(p, co)
	})
}

// solve runs one core solve of a degree-n input under opts, with the
// caller's context composed with Options.Timeout, and converts its
// result.
func solve(ctx context.Context, n int, opts *Options, run func(core.Options) (*core.Result, error)) (*Result, error) {
	start := time.Now()
	co := opts.coreOptions()
	ctx, cancel := withTimeout(ctx, opts)
	defer cancel()
	co.Ctx = ctx

	res, err := run(co)
	if err != nil {
		return partialResult(res, n, co.Mu, start), wrapErr(err)
	}
	roots := make([]Root, len(res.Roots))
	for i, r := range res.Roots {
		roots[i] = Root{Value: r.Rat(), Multiplicity: res.Mults[i]}
	}
	return &Result{
		Roots:      roots,
		Degree:     n,
		Distinct:   len(roots),
		Precision:  co.Mu,
		Elapsed:    time.Since(start),
		Precompute: res.Stats.Precompute,
		TreeSolve:  res.Stats.TreeSolve,
	}, nil
}

func wrapErr(err error) error {
	if errors.Is(err, remseq.ErrNotAllReal) {
		return ErrNotAllReal
	}
	return err
}

// Eigenvalues computes all eigenvalues of a symmetric integer matrix
// (given as rows) to the requested precision, via its characteristic
// polynomial — the paper's own workload. Multiplicities are reported.
func Eigenvalues(matrix [][]int64, opts *Options) (*Result, error) {
	return EigenvaluesContext(context.Background(), matrix, opts)
}

// EigenvaluesContext is Eigenvalues under a caller-supplied context;
// see FindRootsContext for the cancellation contract. The timeout and
// ctx cover the characteristic polynomial too: it is the solve's first
// phase.
func EigenvaluesContext(ctx context.Context, matrix [][]int64, opts *Options) (*Result, error) {
	m, err := charpoly.FromRows(matrix)
	if err != nil {
		return nil, fmt.Errorf("realroots: %w", err)
	}
	if !m.IsSymmetric() {
		return nil, errors.New("realroots: matrix is not symmetric (eigenvalues may be complex)")
	}
	return solve(ctx, m.Dim(), opts, func(co core.Options) (*core.Result, error) {
		return core.FindRootsOfMatrix(m, co)
	})
}

// Isolate returns, for each distinct real root of the polynomial, an
// exact open isolating interval (lo, hi) with hi-lo = 2^-µ: lo and hi
// are consecutive grid rationals and the root lies in (lo, hi]. This is
// the root-isolation half of the problem, exposed directly.
func Isolate(coeffs []*big.Int, opts *Options) ([][2]*big.Rat, error) {
	res, err := FindRoots(coeffs, opts)
	if err != nil {
		return nil, err
	}
	mu := res.Precision
	step := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), mu))
	out := make([][2]*big.Rat, len(res.Roots))
	for i, r := range res.Roots {
		lo := new(big.Rat).Sub(r.Value, step)
		out[i] = [2]*big.Rat{lo, new(big.Rat).Set(r.Value)}
	}
	return out, nil
}

// FindRealRoots computes µ-approximations of the distinct real roots of
// an arbitrary integer polynomial — the input need not have all roots
// real. It uses the sequential Sturm-isolation baseline rather than the
// parallel algorithm (whose precondition is all-real roots), so it is
// slower at high degree but fully general. Multiplicity information is
// not computed; every returned root has Multiplicity 1 in its reported
// slot (repeated roots are collapsed by squarefree reduction).
func FindRealRoots(coeffs []*big.Int, opts *Options) (*Result, error) {
	return FindRealRootsContext(context.Background(), coeffs, opts)
}

// FindRealRootsContext is FindRealRoots under a caller-supplied
// context. The sequential Sturm baseline honors the same resilience
// contract as the parallel path: cancellation, Options.Timeout, and
// Options.MaxBitOps abort the run with the matching typed error.
func FindRealRootsContext(ctx context.Context, coeffs []*big.Int, opts *Options) (*Result, error) {
	start := time.Now()
	c := make([]*mp.Int, len(coeffs))
	for i, v := range coeffs {
		if v == nil {
			return nil, fmt.Errorf("realroots: nil coefficient at degree %d", i)
		}
		c[i] = new(mp.Int).SetBig(v)
	}
	p := poly.New(c...)
	if p.Degree() < 1 {
		return nil, fmt.Errorf("realroots: polynomial of degree %d has no roots", p.Degree())
	}
	co := opts.coreOptions()
	if err := co.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := withTimeout(ctx, opts)
	defer cancel()
	co.Tracer.SetRequestID(co.RequestID)
	run := co.Telemetry.Start(telemetry.RunInfo{
		Kind:      "sturm",
		Degree:    p.Degree(),
		Mu:        co.Mu,
		Workers:   1,
		RequestID: co.RequestID,
	})
	var counters metrics.Counters
	counters.SetBudget(co.MaxBitOps, func() { run.BudgetExhausted(counters.BitOps()) })
	stop := func() error {
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return ErrDeadline
			}
			return ErrCanceled
		}
		if counters.BudgetExceeded() {
			return ErrBudgetExceeded
		}
		return nil
	}
	ctl := co.Tracer.Lane(trace.ControlLane, "control")
	ctl.Begin("sturm", trace.CatTask)
	ds, err := sturm.FindRootsStop(p, co.Mu, metrics.Ctx{C: &counters, Profile: co.Profile}, stop)
	ctl.End()
	if run != nil {
		nroots := 0
		if err == nil {
			nroots = len(ds)
		}
		run.Finish(core.RunOutcome(err), err, nroots, counters.BitOps(), counters.Snapshot())
	}
	if err != nil {
		if core.IsResilience(err) {
			return &Result{Degree: p.Degree(), Precision: co.Mu, Elapsed: time.Since(start)}, err
		}
		return nil, fmt.Errorf("realroots: %w", err)
	}
	roots := make([]Root, len(ds))
	for i, d := range ds {
		roots[i] = Root{Value: d.Rat(), Multiplicity: 1}
	}
	return &Result{
		Roots:     roots,
		Degree:    p.Degree(),
		Distinct:  len(roots),
		Precision: co.Mu,
		Elapsed:   time.Since(start),
	}, nil
}

// CountRealRoots returns the number of distinct real roots of the
// polynomial (which need not have all roots real), by Sturm's theorem.
func CountRealRoots(coeffs []*big.Int) (int, error) {
	c := make([]*mp.Int, len(coeffs))
	for i, v := range coeffs {
		if v == nil {
			return 0, fmt.Errorf("realroots: nil coefficient at degree %d", i)
		}
		c[i] = new(mp.Int).SetBig(v)
	}
	p := poly.New(c...)
	if p.Degree() < 1 {
		return 0, nil
	}
	sf := p.SquarefreePart()
	if s, err := remseq.Compute(sf, remseq.Options{}); err == nil {
		return s.RealRootCount(), nil
	}
	// The remainder sequence is abnormal for polynomials with complex
	// roots; fall back to a counting-only Sturm chain.
	chain, err := sturm.NewChain(sf)
	if err != nil {
		return 0, err
	}
	return chain.CountAll(), nil
}
