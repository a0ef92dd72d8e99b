// Package core implements the complete parallel root-approximation
// algorithm of Narendran & Tiwari: the precomputation of the remainder
// and quotient sequences (§3.1), the bottom-up computation of the
// interleaving-tree polynomials, and the interval problems at every
// node (§3.2), orchestrated either sequentially or on a dynamic
// task-queue scheduler whose task kinds and dependencies mirror the
// paper's Fig. 3.2 (RECURSE, COMPUTEPOLY split into per-entry matrix
// tasks, SORT, PREINTERVAL, INTERVAL).
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
	"realroots/internal/tree"
)

// Options configures a root-finding run.
type Options struct {
	// Mu is the output precision: roots are returned as 2^-µ·⌈2^µ·x⌉.
	Mu uint
	// Workers is the number of scheduler workers (the paper's processor
	// count). 0 or 1 runs the fully sequential path.
	Workers int
	// Method selects the interval-refinement strategy (default: the
	// paper's hybrid).
	Method interval.Method
	// SequentialPrecompute forces the remainder-sequence stage to run
	// sequentially even when Workers > 1 — the paper's run-time option.
	SequentialPrecompute bool
	// Profile selects the big-integer arithmetic algorithms for this run:
	// mp.Schoolbook (the zero value) is the paper's quadratic cost model,
	// mp.Fast enables the subquadratic kernels. The profile is carried on
	// the run's metrics.Ctx — never in package state — so concurrent runs
	// with different profiles are race-free. Recorded operation counts
	// and model bit costs are identical under both profiles.
	Profile mp.Profile
	// ParallelMul, with the Fast profile and Workers > 1, lets single
	// huge balanced products (≳100k bits; see mp.MulParallelEngages) be
	// split into panels submitted to the scheduler pool, so a giant
	// remainder-sequence multiplication no longer serializes one worker.
	// Results are bit-identical with or without it. Ignored under
	// SimulateWorkers — virtual-time simulation measures each task body
	// on one real worker, which panel parallelism would distort.
	ParallelMul bool
	// SimulateWorkers, when > 0, executes the task graph on one real
	// worker while list-scheduling the measured task durations onto this
	// many *virtual* processors (see sched.NewSimulatedPool). The
	// simulated makespan is reported in Stats. Used to reproduce the
	// paper's multiprocessor speedup experiments on hosts without the
	// paper's 20-processor shared-memory machine. Mutually exclusive
	// with Workers.
	SimulateWorkers int
	// Counters, if non-nil, accumulates per-phase arithmetic counts.
	Counters *metrics.Counters
	// Tracer, if non-nil, records wall-clock spans: pipeline phase
	// spans on the control lane, per-worker task timelines on the
	// scheduler (parallel runs), and per-node task spans on the
	// control lane (sequential runs). A nil Tracer adds no
	// allocations to the solver hot path.
	Tracer *trace.Tracer
	// CheckTree enables the Theorem 1 structural self-check on the
	// computed tree (tests and debugging).
	CheckTree bool
	// Telemetry, if non-nil, receives the run's lifecycle: structured
	// start, budget-trip and finish log records (a failed run's finish
	// with its error), and — at Finish — the run's outcome, wall time,
	// scheduler stats and arithmetic metrics folded into the hub's
	// registry. Phase spans and task timelines are the Tracer's. Unlike
	// Tracer it is designed to stay attached in production: its memory
	// is bounded and a nil hub adds no allocations. When set and
	// Counters is nil, internal counters are allocated so the registry
	// still sees the run's arithmetic metrics.
	Telemetry *telemetry.Telemetry

	// Ctx carries cancellation and deadlines into the run; nil means
	// context.Background(). Cancellation mid-phase drains the scheduler
	// queue (parallel runs) or aborts at the next per-node / per-interval
	// checkpoint (sequential runs) and returns ErrCanceled or
	// ErrDeadline with the partial Stats gathered so far.
	Ctx context.Context
	// MaxBitOps bounds the run's arithmetic work: the cumulative
	// Σ bitlen·bitlen over big-integer multiplications and divisions
	// (the paper's §4 bit-complexity measure, metered by the metrics
	// sink). Exceeding it returns ErrBudgetExceeded. 0 means unlimited.
	// When no Counters are supplied, internal ones are allocated to
	// meter the budget.
	MaxBitOps int64
	// TaskHook, if non-nil, is called as each scheduler task starts,
	// with the pool's task sequence number (0, 1, 2, … in execution
	// order) — the fault-injection point used by internal/faultinject.
	// It is the pool's last observer, inside the task's panic
	// isolation: it may sleep, cancel, or panic, and a panic fails the
	// run with a *sched.PanicError. Parallel and simulated runs only.
	TaskHook func(seq int64)
	// OnPhase, if non-nil, is called as each pipeline phase begins,
	// with the name of the phase's control-lane trace span: "remainder"
	// and "solve" once each for a squarefree input, and again for each
	// Yun factor of an input with repeated roots; a matrix input first
	// reports "charpoly". Within "solve", "interval" is reported when
	// the first interval problem starts; it has no span of its own.
	// rootd shows the latest name in /debug/requests, and tests cancel
	// at exact phase boundaries with it.
	OnPhase func(phase string)
	// RequestID, if non-empty, names the external request this run
	// serves (rootd's X-Request-Id). It is stamped on the slog records
	// the run writes (including the finish record that carries a task
	// panic's value) and on its trace spans, so one ID recovers the run
	// from either.
	RequestID string
}

// Stats reports timing and scheduling details of a run.
type Stats struct {
	// Precompute and TreeSolve are the paper's two stages, summed over
	// the input and, when it has repeated roots, its Yun factors.
	Precompute time.Duration // remainder-sequence stage
	TreeSolve  time.Duration // tree polynomials + all interval problems
	Total      time.Duration
	Tasks      int64 // tasks executed by the scheduler (parallel runs)

	// Simulation-mode outputs (Options.SimulateWorkers > 0):
	// SimMakespan is the virtual completion time on the simulated
	// processors; SimWork is the total measured task time (the
	// one-processor makespan).
	SimMakespan, SimWork time.Duration

	// TaskKinds counts the scheduler tasks executed per kind on
	// parallel/simulated runs — the task taxonomy of the paper's
	// Fig. 3.2 plus the precomputation stage's coefficient tasks.
	TaskKinds TaskKindCounts
}

// TaskKindCounts breaks the executed tasks down by kind.
type TaskKindCounts struct {
	Precompute  int64 // remainder-stage coefficient tasks (§3.1)
	ComputePoly int64 // matrix-entry products, seeds, and divisions (§3.2)
	Sort        int64 // child-root merges
	PreInterval int64 // interleaving-point evaluations
	Interval    int64 // per-root interval problems
}

// Total returns the total task count.
func (t TaskKindCounts) Total() int64 {
	return t.Precompute + t.ComputePoly + t.Sort + t.PreInterval + t.Interval
}

// Result is the outcome of FindRoots.
type Result struct {
	// Roots holds the µ-approximations of the distinct real roots of
	// the input, in ascending order.
	Roots []dyadic.Dyadic
	// Mults holds the multiplicity in the input of each entry of Roots.
	Mults []int
	// Degree is the input degree; NStar the number of distinct roots.
	Degree, NStar int
	// Squarefree reports whether the input itself was squarefree.
	Squarefree bool
	Stats      Stats
}

// A RootMult is a distinct root together with its multiplicity.
type RootMult struct {
	Root dyadic.Dyadic
	Mult int
}

// ErrNoRealRoots wraps the precondition violations from remseq.
var (
	ErrNotAllReal = remseq.ErrNotAllReal
)

// FindRoots computes µ-approximations to all distinct real roots of p,
// and their multiplicities; p must be a non-constant integer polynomial
// all of whose roots are real. It solves the primitive part of p with a
// positive leading coefficient. The remainder sequence detects repeated
// roots itself (the paper's §2.3): only when it terminates early does
// FindRoots split p by Yun's algorithm, seeded with the gcd the
// sequence ended on, and solve each squarefree factor in turn.
//
// When the run is cut short (ErrCanceled, ErrDeadline,
// ErrBudgetExceeded, or an isolated task panic — see IsResilience),
// the returned Result is non-nil with no Roots but with the partial
// Stats gathered up to the interruption.
func FindRoots(p *poly.Poly, opts Options) (*Result, error) {
	return findRoots(input{p: p}, opts)
}

// FindRootsOfMatrix is FindRoots on the characteristic polynomial
// det(λI − m), which it computes as the solve's first phase,
// "charpoly": under the run's deadline and cancellation, on its trace
// and telemetry, and inside Stats.Total, but outside its Counters, so
// bit operations and MaxBitOps measure the root finder alone.
func FindRootsOfMatrix(m *charpoly.Matrix, opts Options) (*Result, error) {
	return findRoots(input{m: m}, opts)
}

// An input is what one call solves: the polynomial p, or the matrix m
// whose characteristic polynomial the call computes first.
type input struct {
	p *poly.Poly
	m *charpoly.Matrix
}

func (in input) degree() int {
	if in.m != nil {
		return in.m.Dim()
	}
	return in.p.Degree()
}

func findRoots(in input, opts Options) (*Result, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if in.m == nil && in.p.IsZero() {
		return nil, errors.New("core: zero polynomial")
	}
	if in.degree() < 1 {
		return nil, fmt.Errorf("core: constant polynomial has no roots")
	}
	res, err := solve(in, opts)
	if res != nil {
		res.Degree = in.degree()
		res.Stats.Total = time.Since(start)
	}
	return res, err
}

// FindRootsWithMultiplicity is FindRoots returning each distinct real
// root of p paired with its multiplicity.
func FindRootsWithMultiplicity(p *poly.Poly, opts Options) ([]RootMult, error) {
	res, err := FindRoots(p, opts)
	if err != nil {
		return nil, err
	}
	out := make([]RootMult, len(res.Roots))
	for i, r := range res.Roots {
		out[i] = RootMult{Root: r, Mult: res.Mults[i]}
	}
	return out, nil
}

// solve instruments one FindRoots call: it opens a single telemetry run
// around every pipeline the call runs (a no-op when no hub is attached)
// and closes it with the call's outcome and metrics.
func solve(in input, opts Options) (*Result, error) {
	workers := opts.Workers
	if opts.SimulateWorkers > 0 {
		workers = opts.SimulateWorkers
	}
	if workers < 1 {
		workers = 1
	}
	opts.Tracer.SetRequestID(opts.RequestID)
	run := opts.Telemetry.Start(telemetry.RunInfo{
		Kind:      "core",
		Degree:    in.degree(),
		Mu:        opts.Mu,
		Workers:   workers,
		RequestID: opts.RequestID,
	})
	counters := opts.Counters
	if counters == nil && (opts.MaxBitOps > 0 || run != nil) {
		counters = &metrics.Counters{} // budget metering and telemetry need a sink
	}
	res, err := solveRun(in, opts, counters, run)
	if run != nil {
		nroots := 0
		if err == nil && res != nil {
			nroots = len(res.Roots)
		}
		run.Finish(RunOutcome(err), err, nroots, counters.BitOps(), counters.Snapshot())
	}
	return res, err
}

// A call is the state that one FindRoots call shares across the
// pipelines it runs — one for the input, then one per Yun factor when
// the input has repeated roots.
type call struct {
	opts    Options
	mctx    metrics.Ctx
	pool    *sched.Pool // nil on sequential runs
	ctl     *trace.Lane
	stop    func() error
	onPhase func(phase string)
	stats   Stats // Precompute, TreeSolve and TaskKinds.Precompute, summed
	tally   taskTally
}

// solveRun sets up the call's pool, stop check and budget, computes a
// matrix input's characteristic polynomial, then runs the pipeline on
// the normalized polynomial and, when the remainder sequence reports
// repeated roots, on each of its Yun factors.
func solveRun(in input, opts Options, counters *metrics.Counters, run *telemetry.Run) (*Result, error) {
	// One workspace list per solve: every remainder, tree and division
	// operation draws its buffers from it, and it is dropped with the
	// call when the solve returns.
	c := &call{opts: opts, mctx: metrics.Ctx{C: counters, Profile: opts.Profile, Scratch: new(mp.Scratch)}}
	n := in.degree()

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	c.onPhase = opts.OnPhase
	if c.onPhase == nil {
		c.onPhase = func(string) {}
	}

	// stop is the sequential-path checkpoint, polled per charpoly
	// prime, per remainder iteration, per Yun gcd step, per tree node,
	// and per interval problem. The parallel path enforces the same
	// conditions through pool cancellation.
	c.stop = func() error {
		select {
		case <-ctx.Done():
			return ctxErr(ctx.Err())
		default:
		}
		if counters.BudgetExceeded() {
			return ErrBudgetExceeded
		}
		return nil
	}

	pool := newPool(opts)
	c.pool = pool
	if pool != nil {
		if run != nil {
			// Registered before the Close defer so it runs after it
			// (LIFO): the stats snapshot then covers the full drain.
			defer func() { run.SchedStats(pool.Stats()) }()
		}
		defer pool.Close()
		// Forward context cancellation to the pool; the watchdog exits
		// when the run finishes.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				pool.Cancel(ctxErr(ctx.Err()))
			case <-watchDone:
			}
		}()
	}
	if opts.ParallelMul && opts.Profile == mp.Fast && pool != nil && opts.SimulateWorkers == 0 {
		c.mctx.Par = parMulSubmitter{pool}
	}
	if counters != nil && opts.MaxBitOps > 0 {
		cancelPool := pool // nil on sequential runs: stop() polls instead
		counters.SetBudget(opts.MaxBitOps, func() {
			run.BudgetExhausted(counters.BitOps())
			if cancelPool != nil {
				cancelPool.Cancel(ErrBudgetExceeded)
			}
		})
	}

	// partial packages the stats gathered so far with a resilience
	// error; precondition errors return a nil Result instead.
	partial := func(err error) (*Result, error) {
		if !IsResilience(err) {
			return nil, err
		}
		res := &Result{NStar: n, Stats: Stats{Precompute: c.stats.Precompute, TreeSolve: c.stats.TreeSolve}}
		if pool != nil {
			res.Stats.Tasks = pool.Executed()
		}
		return res, err
	}

	if err := c.stop(); err != nil {
		return partial(err)
	}

	// Control lane: pipeline phase spans recorded by the orchestrating
	// goroutine. Nil-safe — a nil Tracer makes every call below a no-op.
	c.ctl = opts.Tracer.Lane(trace.ControlLane, "control")

	p := in.p
	if in.m != nil {
		var err error
		if p, err = c.charPoly(in.m); err != nil {
			return partial(err)
		}
	}

	// Normalize once, as Yun does: the factors it returns are primitive
	// with positive leading coefficients, and so is p.
	p = p.PrimitivePartProfile(opts.Profile)
	if p.Lead().Sign() < 0 {
		p = p.Neg()
	}
	res := &Result{Squarefree: true}
	roots, err := c.pipeline(p)
	var rr *remseq.RepeatedRootsError
	switch {
	case errors.As(err, &rr):
		res.Squarefree = false
		roots, res.Mults, err = c.solveFactors(p, rr.GCD)
	case err == nil:
		res.Mults = make([]int, len(roots))
		for i := range res.Mults {
			res.Mults[i] = 1
		}
	}
	if err != nil {
		return partial(err)
	}
	res.Roots, res.NStar = roots, len(roots)
	res.Stats = c.stats
	if pool != nil {
		res.Stats.Tasks = pool.Executed()
		res.Stats.SimMakespan, res.Stats.SimWork = pool.SimStats()
		res.Stats.TaskKinds.ComputePoly = c.tally.computePoly.Load()
		res.Stats.TaskKinds.Sort = c.tally.sort.Load()
		res.Stats.TaskKinds.PreInterval = c.tally.preInterval.Load()
		res.Stats.TaskKinds.Interval = c.tally.interval.Load()
	}
	return res, nil
}

// charPoly computes det(λI − m) as the call's first phase. It polls the
// call's stop check once per prime and records no arithmetic in the
// counters, so the deadline bounds it and MaxBitOps does not.
func (c *call) charPoly(m *charpoly.Matrix) (*poly.Poly, error) {
	var p *poly.Poly
	err := c.phase("charpoly", func() (err error) {
		p, err = charpoly.CharPolyStop(m, c.stop)
		return err
	})
	return p, err
}

// phase runs one pipeline phase: it tells OnPhase that the phase has
// begun and records fn's run as the phase's control-lane span, so the
// names OnPhase reports and the trace's phase spans are the same. The
// span is closed when fn returns, failed or not.
func (c *call) phase(name string, fn func() error) error {
	c.onPhase(name)
	c.ctl.Begin(name, trace.CatPhase)
	err := fn()
	c.ctl.End()
	return err
}

// solveFactors handles an input whose remainder sequence terminated
// early with the gcd g. It splits p by Yun's algorithm seeded with g,
// under the call's profile and stop check, then solves each squarefree
// factor and merges the roots, each tagged with its factor's
// multiplicity. Yun's arithmetic is not recorded: a repeated-root
// input's bit operations are the remainder work that detected the
// repeated roots plus the factor solves.
func (c *call) solveFactors(p, g *poly.Poly) ([]dyadic.Dyadic, []int, error) {
	factors, err := poly.YunFromGCD(c.mctx, p, g, c.stop)
	if err != nil {
		return nil, nil, err
	}
	var out []RootMult
	for k, u := range factors {
		if u.Degree() < 1 {
			continue
		}
		roots, err := c.pipeline(u)
		if err != nil {
			return nil, nil, fmt.Errorf("core: multiplicity-%d factor: %w", k+1, err)
		}
		for _, r := range roots {
			out = append(out, RootMult{Root: r, Mult: k + 1})
		}
	}
	// The factors' root sets are disjoint.
	slices.SortFunc(out, func(a, b RootMult) int { return a.Root.Cmp(b.Root) })
	roots := make([]dyadic.Dyadic, len(out))
	mults := make([]int, len(out))
	for i, rm := range out {
		roots[i], mults[i] = rm.Root, rm.Mult
	}
	return roots, mults, nil
}

// pipeline runs the paper's two stages on p and returns its roots. It
// returns a *remseq.RepeatedRootsError, after the remainder stage, when
// p has repeated roots.
func (c *call) pipeline(p *poly.Poly) ([]dyadic.Dyadic, error) {
	opts := c.opts
	n := p.Degree()

	// Degree-1 short-circuit: nothing to precompute.
	if n == 1 {
		bound := p.RootBound()
		c.ctl.Begin("interval", trace.CatTask)
		s := interval.NewSolver(p, nil, bound, opts.Mu, opts.Method, c.mctx)
		roots := s.SolveAll()
		c.ctl.End()
		return roots, nil
	}

	// Stage 1: remainder and quotient sequences.
	var seq *remseq.Sequence
	err := c.phase("remainder", func() (err error) {
		t0 := time.Now()
		var executed int64
		if c.pool != nil {
			executed = c.pool.Executed()
		}
		seqOpts := remseq.Options{Ctx: c.mctx, Stop: c.stop}
		if c.pool != nil && !opts.SequentialPrecompute {
			seqOpts.Pool = c.pool
		}
		seq, err = remseq.Compute(p, seqOpts)
		if err == nil {
			err = seq.Validate()
		}
		c.stats.Precompute += time.Since(t0)
		if c.pool != nil {
			c.stats.TaskKinds.Precompute += c.pool.Executed() - executed
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Stage 2: tree polynomials and interval problems.
	var root *tree.Node
	err = c.phase("solve", func() (err error) {
		if err = c.stop(); err != nil {
			return err
		}
		t1 := time.Now()
		root = tree.Build(n)
		bound := p.RootBound()
		var onInterval sync.Once
		intervalPhase := func() { onInterval.Do(func() { c.onPhase("interval") }) }
		if c.pool == nil {
			err = solveSequential(seq, root, bound, opts, c.mctx, c.ctl, c.stop, intervalPhase)
		} else {
			err = solveParallel(c.pool, seq, root, bound, opts, c.mctx, &c.tally, intervalPhase)
		}
		if err == nil && opts.CheckTree {
			err = tree.CheckShape(root, n)
		}
		c.stats.TreeSolve += time.Since(t1)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(root.Roots) != n {
		return nil, fmt.Errorf("core: solved %d roots for degree %d (internal invariant)", len(root.Roots), n)
	}
	return root.Roots, nil
}

// mergeRoots merges the two sorted child root slices (the SORT task).
func mergeRoots(nd *tree.Node) []dyadic.Dyadic {
	var left, right []dyadic.Dyadic
	if nd.Left != nil {
		left = nd.Left.Roots
	}
	if nd.Right != nil {
		right = nd.Right.Roots
	}
	out := make([]dyadic.Dyadic, 0, len(left)+len(right))
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		if left[i].Cmp(right[j]) <= 0 {
			out = append(out, left[i])
			i++
		} else {
			out = append(out, right[j])
			j++
		}
	}
	out = append(out, left[i:]...)
	out = append(out, right[j:]...)
	return out
}

// solveSequential runs the whole second stage in post-order on the
// calling goroutine, polling stop between nodes and between interval
// problems so cancellation and budget exhaustion abort mid-phase. The
// control lane records one task span per node step using the same tag
// names as the parallel scheduler, so sequential and parallel traces
// aggregate under the same task kinds.
func solveSequential(seq *remseq.Sequence, root *tree.Node, bound *mp.Int, opts Options, mctx metrics.Ctx, ctl *trace.Lane, stop func() error, intervalPhase func()) error {
	var werr error
	root.Walk(func(nd *tree.Node) {
		if werr != nil {
			return
		}
		if werr = stop(); werr != nil {
			return
		}
		ctl.Begin("computepoly", trace.CatTask)
		tree.ComputePoly(seq, mctx, nd)
		ctl.End()
		ctl.Begin("sort", trace.CatTask)
		ys := mergeRoots(nd)
		ctl.End()
		ctl.Begin("preinterval", trace.CatTask)
		s := interval.NewSolver(nd.P, ys, bound, opts.Mu, opts.Method, mctx)
		for i := 0; i < s.NumPoints(); i++ {
			s.EvalPoint(i)
		}
		ctl.End()
		intervalPhase()
		roots := make([]dyadic.Dyadic, s.NumRoots())
		for i := range roots {
			if werr = stop(); werr != nil {
				return
			}
			ctl.Begin("interval", trace.CatTask)
			roots[i] = s.SolveInterval(i)
			ctl.End()
		}
		nd.Roots = roots
	})
	return werr
}

// newPool builds a call's scheduler pool, or returns nil for a
// sequential run. Its observers are fixed here, in order: the tracer,
// then the fault-injection hook, so a task the hook fails still has a
// closed span on the tracer. The tracer is the pool's only recorder;
// the telemetry run sees the pool through its final Stats.
func newPool(opts Options) *sched.Pool {
	if opts.SimulateWorkers <= 0 && opts.Workers <= 1 {
		return nil
	}
	var obs []sched.Observer
	if opts.Tracer != nil {
		obs = append(obs, opts.Tracer)
	}
	if opts.TaskHook != nil {
		obs = append(obs, &taskHook{hook: opts.TaskHook})
	}
	if opts.SimulateWorkers > 0 {
		return sched.NewSimulatedPool(opts.SimulateWorkers, obs...)
	}
	return sched.NewPool(opts.Workers, obs...)
}

// taskHook attaches Options.TaskHook to a pool: it numbers the pool's
// task starts 0, 1, 2, … and hands each number to the hook.
type taskHook struct {
	hook func(seq int64)
	seq  atomic.Int64
}

func (h *taskHook) TaskStart(int, string, time.Duration, int) { h.hook(h.seq.Add(1) - 1) }
func (h *taskHook) TaskDone(int, string)                      {}

// parMulSubmitter adapts the scheduler pool to mp's Parallel hook,
// tagging panel tasks so they are distinguishable on trace timelines.
// Dropping tasks is safe: a canceled pool drains its queue without
// executing, and the multiplication's claim loop completes on the
// calling worker regardless.
type parMulSubmitter struct{ pool *sched.Pool }

func (s parMulSubmitter) Submit(task func()) { s.pool.SubmitTagged("parmul", task) }

// taskTally counts executed tree-stage tasks per Fig. 3.2 kind.
type taskTally struct {
	computePoly, sort, preInterval, interval atomic.Int64
}

// nodeState carries the per-node synchronization data of the parallel
// driver: the paper's "status data structures corresponding to the
// nodes of the tree ... used to schedule the tasks" (§3.2).
type nodeState struct {
	polyGate  *sched.Gate // children's T matrices → COMPUTEPOLY
	sortGate  *sched.Gate // children's roots → SORT
	readyGate *sched.Gate // {poly done, sort done} → PREINTERVAL fan-out
	m1        tree.Matrix2
	ys        []dyadic.Dyadic
	solver    *interval.Solver
}

// solveParallel runs the second stage as a dependency-driven task graph
// on the pool. Task kinds per node (Fig. 3.2):
//
//	RECURSE      — builds the node state (the skeleton is already built
//	               by tree.Build; the state initialization here is the
//	               residue of the paper's top-down phase)
//	COMPUTEPOLY  — two 2×2 polynomial matrix products, one after the
//	               other, each split into 4 entry tasks
//	SORT         — merge the children's sorted root lists
//	PREINTERVAL  — one task per interleaving-point evaluation
//	INTERVAL     — one task per interval problem
//
// A node is complete when all its INTERVAL tasks are; completion
// signals the parent's SORT gate. COMPUTEPOLY completion signals the
// parent's COMPUTEPOLY gate.
//
// On cancellation or task failure the queue is drained without running
// (sched.Pool semantics): gates stop firing, Wait still returns, and
// the pool's first-failure error is reported instead of the roots.
func solveParallel(pool *sched.Pool, seq *remseq.Sequence, root *tree.Node, bound *mp.Int, opts Options, ctx metrics.Ctx, tally *taskTally, intervalPhase func()) error {
	n := seq.N
	states := make(map[*tree.Node]*nodeState)
	done := make(chan struct{})

	// RECURSE: allocate states top-down.
	var recurse func(nd *tree.Node)
	recurse = func(nd *tree.Node) {
		states[nd] = &nodeState{}
		if nd.Left != nil {
			recurse(nd.Left)
		}
		if nd.Right != nil {
			recurse(nd.Right)
		}
	}
	recurse(root)

	// nodeDone: node's roots are ready.
	nodeDone := func(nd *tree.Node) {
		if nd.Parent == nil {
			close(done)
			return
		}
		states[nd.Parent].sortGate.Done()
	}

	// polyDone: node's P (and T if applicable) is ready.
	polyDone := func(nd *tree.Node) {
		if nd.Parent != nil {
			if ps := states[nd.Parent]; ps.polyGate != nil {
				ps.polyGate.Done()
			}
		}
		states[nd].readyGate.Done()
	}

	// Wire up each node's gates (bottom-up so gates exist before any
	// task can fire them; no task runs until the pool sees it).
	root.Walk(func(nd *tree.Node) {
		st := states[nd]

		// PREINTERVAL fan-out, then INTERVAL fan-out, once both the
		// polynomial and the merged child roots are available.
		st.readyGate = sched.NewGateTagged(pool, 2, "preinterval", func() {
			st.solver = interval.NewSolver(nd.P, st.ys, bound, opts.Mu, opts.Method, ctx)
			d := st.solver.NumRoots()
			roots := make([]dyadic.Dyadic, d)
			intervalGate := sched.NewGateTagged(pool, d, "gate", func() {
				nd.Roots = roots
				nodeDone(nd)
			})
			preGate := sched.NewGateTagged(pool, st.solver.NumPoints(), "gate", func() {
				for i := 0; i < d; i++ {
					i := i
					pool.SubmitTagged("interval", func() { // INTERVAL task
						intervalPhase()
						tally.interval.Add(1)
						roots[i] = st.solver.SolveInterval(i)
						intervalGate.Done()
					})
				}
			})
			for i := 0; i < st.solver.NumPoints(); i++ {
				i := i
				pool.SubmitTagged("preinterval", func() { // PREINTERVAL task
					tally.preInterval.Add(1)
					st.solver.EvalPoint(i)
					preGate.Done()
				})
			}
		})

		// SORT gate: children's roots.
		nChildren := 0
		if nd.Left != nil {
			nChildren++
		}
		if nd.Right != nil {
			nChildren++
		}
		st.sortGate = sched.NewGateTagged(pool, nChildren, "sort", func() { // SORT task
			tally.sort.Add(1)
			st.ys = mergeRoots(nd)
			st.readyGate.Done()
		})

		// COMPUTEPOLY path: seed tasks (leaves, rightmost spine) are
		// submitted in a second pass below, after all gates exist.
		switch {
		case nd.J == n, nd.IsLeaf():
			// Rightmost spine (P = F_{i-1}, no products) or leaf (T = Ŝ_i).
		default:
			needs := 1 // left child always carries a T here
			if nd.Right != nil {
				needs = 2
			}
			st.polyGate = sched.NewGateTagged(pool, needs, "computepoly", func() {
				// First product: M1 = Ŝ_k · T_left, 4 entry tasks.
				sh := tree.SHat(seq, nd.K)
				tctx := ctx.In(metrics.PhaseTree)
				secondGate := sched.NewGateTagged(pool, 4, "computepoly", func() {
					tally.computePoly.Add(1)
					// Second product (or scalar fold) + exact division.
					if nd.Right == nil {
						t := st.m1.DivExact(tctx, seq.Csq(nd.K-1))
						nd.T = t
						nd.P = t[1][1]
						polyDone(nd)
						return
					}
					divisor := new(mp.Int).MulProfile(tctx.Profile, seq.Csq(nd.K), seq.Csq(nd.K-1))
					prod := new(tree.Matrix2)
					prodGate := sched.NewGateTagged(pool, 4, "computepoly", func() {
						tally.computePoly.Add(1)
						t := prod.DivExact(tctx, divisor)
						nd.T = t
						nd.P = t[1][1]
						polyDone(nd)
					})
					for r := 0; r < 2; r++ {
						for c := 0; c < 2; c++ {
							r, c := r, c
							pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY entry task (2nd product)
								tally.computePoly.Add(1)
								prod[r][c] = tree.MulEntry(tctx, nd.Right.T, &st.m1, r, c)
								prodGate.Done()
							})
						}
					}
				})
				for r := 0; r < 2; r++ {
					for c := 0; c < 2; c++ {
						r, c := r, c
						pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY entry task (1st product)
							tally.computePoly.Add(1)
							st.m1[r][c] = tree.MulEntry(tctx, sh, nd.Left.T, r, c)
							secondGate.Done()
						})
					}
				}
			})
		}
	})

	// Second pass: submit the seed COMPUTEPOLY tasks now that every gate
	// exists (a seed completing mid-wiring could otherwise signal a
	// parent whose gates are not yet constructed).
	root.Walk(func(nd *tree.Node) {
		if nd.J == n || nd.IsLeaf() {
			nd := nd
			pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY seed task
				tally.computePoly.Add(1)
				tree.ComputePoly(seq, ctx, nd)
				polyDone(nd)
			})
		}
	})

	pool.Wait()
	if err := pool.Err(); err != nil {
		// Canceled or failed: the drained queue left gates unfired, so
		// done may never close. The partial node results are abandoned.
		return err
	}
	// Healthy drain: the root's completion closed done inside the last
	// task, strictly before Wait returned.
	<-done
	return nil
}
