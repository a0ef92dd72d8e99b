package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"realroots"
	"realroots/internal/core"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// workloads maps each --workload name to its runner. README.md and
// BENCHMARK.json give the reason for each.
var workloads = map[string]func(cfg config) (*report, error){
	"lib-highdeg": runLibrary,
	"rootd-mixed": runRootd,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// capFactor and capSlack bound the measured phase at
// capFactor·seconds + capSlack: a program slow enough to pass it stops
// after the current pass, so that even a much slower build finishes a
// run in minutes rather than hours.
const (
	capFactor = 3
	capSlack  = 20 * time.Second
)

// passCount is the fixed number of whole passes a run measures: the
// target seconds over the workload's nominal pass length on the
// reference host. It depends only on the arguments, never on measured
// speed, so every run of a seed solves the same inputs and collects the
// same number of samples.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// derive mixes the run seed with a stream label and indices into an
// independent input seed (splitmix64).
func derive(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix(x ^ splitmix(uint64(p)+0x632be59bd9b4e019))
	}
	return int64(x >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seed streams: each kind of random choice draws from its own stream.
const (
	streamMatrix = iota + 1
	streamOrder
	streamRepeat
	streamMultiplicity
	streamOperands
)

// input is one distinct solve input.
type input struct {
	id     int
	degree int
	mu     uint
	form   string     // "poly", "matrix" or "mult" (repeated roots)
	seed   int64      // generator seed
	p      *poly.Poly // nil for matrix-form inputs until the run checks them
	coeffs []*big.Int // p's coefficients: the reference for the check
	rows   [][]int64  // matrix-form inputs only
	// repeated records that p has repeated roots (its Yun decomposition
	// has more than one factor); set after the measured phase.
	repeated bool
}

func (in *input) cell() string {
	s := fmt.Sprintf("n=%d mu=%d", in.degree, in.mu)
	if in.form != "poly" {
		s += " " + in.form
	}
	return s
}

func bigCoeffs(p *poly.Poly) []*big.Int {
	c := make([]*big.Int, p.Degree()+1)
	for i := range c {
		c[i] = p.Coeff(i).ToBig()
	}
	return c
}

// parallel runs f(0..n-1) on up to workers goroutines, each taking the
// next index as soon as its previous call returns, and returns once
// every call has finished. With clients as workers it is a closed loop.
func parallel(n, workers int, f func(i int)) {
	var next sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < max(1, min(workers, n)); w++ {
		next.Add(1)
		go func() {
			defer next.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	next.Wait()
}

// libSpec describes a library workload: realroots.FindRoots called by
// one caller in a closed loop on the paper's §5 input family.
type libSpec struct {
	degrees []int
	mus     []uint
	profile realroots.Profile
	workers int
	// passSeconds is one pass's nominal length on the reference host.
	passSeconds float64
}

func highDeg(tiny bool) libSpec {
	s := libSpec{degrees: span(36, 44), mus: []uint{8, 16}, profile: realroots.ProfileFast, workers: 2, passSeconds: 2.1}
	if tiny {
		s.degrees, s.mus, s.passSeconds = []int{10, 12}, []uint{8}, 0.05
	}
	return s
}

func span(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

func (s libSpec) coreOptions(mu uint) core.Options {
	return core.Options{Mu: mu, Workers: s.workers, Method: interval.MethodHybrid, Profile: mp.Profile(s.profile)}
}

// libPlan is a library run's inputs: the call order of the warm-up
// pass and of every measured pass, over the distinct inputs.
type libPlan struct {
	warmup []*input
	passes [][]*input
	inputs []*input
}

// plan generates the inputs from the seed, one CharPoly01 draw per
// (degree, µ) cell, and the order of every pass: the same inputs,
// shuffled per pass.
func (s libSpec) plan(seed int64, passes int) *libPlan {
	pl := &libPlan{}
	for _, n := range s.degrees {
		for _, mu := range s.mus {
			pl.inputs = append(pl.inputs, &input{id: len(pl.inputs), degree: n, mu: mu, form: "poly", seed: derive(seed, streamMatrix, int64(n), int64(mu))})
		}
	}
	order := func(pass int) []*input {
		out := append([]*input(nil), pl.inputs...)
		r := rand.New(rand.NewSource(derive(seed, streamOrder, int64(pass))))
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	pl.warmup = order(-1)
	for j := 0; j < passes; j++ {
		pl.passes = append(pl.passes, order(j))
	}
	parallel(len(pl.inputs), runtime.NumCPU(), func(i int) {
		in := pl.inputs[i]
		in.p = workload.CharPoly01(in.seed, in.degree)
		in.coeffs = bigCoeffs(in.p)
	})
	return pl
}

func runLibrary(cfg config) (*report, error) {
	s := highDeg(cfg.tiny)
	passes := passCount(cfg.seconds, s.passSeconds)
	optsFor := func(in *input) *realroots.Options {
		return &realroots.Options{Precision: in.mu, Workers: s.workers, Profile: s.profile}
	}

	// Setup: generate the inputs and run one warm-up pass, setupReps
	// times; the last setup's inputs are measured.
	var setups []float64
	var pl *libPlan
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		pl = s.plan(cfg.seed, passes)
		for _, in := range pl.warmup {
			if _, err := realroots.FindRoots(in.coeffs, optsFor(in)); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", in.cell(), err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	opts := make([]*realroots.Options, len(pl.inputs))
	for _, in := range pl.inputs {
		opts[in.id] = optsFor(in)
	}

	// Measured phase: nothing attached beyond what FindRoots attaches.
	var calls []call
	var m meter
	seen := make([][]answerRoot, len(pl.inputs))
	limit := time.Duration(capFactor*cfg.seconds*float64(time.Second)) + capSlack
	for j, pass := range pl.passes {
		m.start()
		answered := 0
		for _, in := range pass {
			t0 := time.Now()
			res, err := realroots.FindRoots(in.coeffs, opts[in.id])
			c := call{in: in, pass: j, ms: ms(time.Since(t0)), err: err}
			if err == nil {
				answered++
				c.roots = libAnswer(res.Roots)
			}
			calls = append(calls, c)
		}
		m.stop(len(pass), answered)
		shareAnswers(seen, calls[len(calls)-len(pass):])
		if m.wall > limit {
			break
		}
	}
	heapMB := retainedHeapMB()

	rep, first := assemble(pl.inputs, calls, &m)
	rep.notes = append([]string{fmt.Sprintf("passes=%d calls=%d distinct_inputs=%d workers=%d profile=%s closed loop, 1 caller",
		len(m.passes), len(calls), len(pl.inputs), s.workers, s.profile)}, rep.notes...)
	answeredIns := answeredInputs(pl.inputs, first)
	repeated := repeatedRootFrac(answeredIns)
	if cfg.trace {
		items := make([]*replayItem, len(answeredIns))
		e2e := perInputLatency(calls)
		for i, in := range answeredIns {
			items[i] = &replayItem{in: in, library: true, e2eMS: e2e[in.id], answer: first[in.id]}
		}
		lm, err := replayLayers(cfg, items, s.coreOptions, mp.Profile(s.profile))
		if err != nil {
			return nil, err
		}
		for k, v := range lm.metrics {
			rep.metrics[k] = v
		}
		rep.notes = append(rep.notes, lm.notes...)
		rep.metrics["poly.repeated_root_frac"] = repeated
		for _, k := range []string{"server.admit_queue_ms_p50", "server.http_overhead_ms_p50",
			"server.cache_hit_frac", "server.rejected_frac", "telemetry.trace_tax_ms_per_req"} {
			rep.metrics[k] = 0
		}
		rep.notes = append(rep.notes, propertyNote(repeated, lm.smallOperandFrac, -1))
		return rep, nil
	}

	// Bit operations are exact, so a counted core solve per distinct
	// input, after the measured phase, gives the measured calls' count.
	bitops := make([]float64, len(pl.inputs))
	reports := make([]metrics.Report, len(answeredIns))
	parallel(len(answeredIns), max(1, runtime.NumCPU()/s.workers), func(i int) {
		in := answeredIns[i]
		var c metrics.Counters
		o := s.coreOptions(in.mu)
		o.Counters = &c
		if _, err := solveCore(in, o, true); err == nil {
			bitops[in.id] = float64(c.BitOps())
			reports[i] = c.Snapshot()
		}
	})
	var total metrics.Report
	for _, r := range reports {
		total = total.Add(r)
	}
	callBits := 0.0
	for _, c := range calls {
		callBits += bitops[c.in.id]
	}
	rep.notes = append(rep.notes, propertyNote(repeated, smallOperandFrac(total), -1))
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["bitops_per_solve"] = callBits / float64(len(calls))
	rep.metrics["retained_heap_mb"] = heapMB
	return rep, nil
}

// solveCore solves an input through internal/core the way the entry
// point does: core.FindRoots for a squarefree library input, otherwise
// core.FindRootsWithMultiplicity (rootd always takes that path). Only
// core.FindRoots returns a Result.
func solveCore(in *input, o core.Options, library bool) (*core.Result, error) {
	if library && !in.repeated {
		return core.FindRoots(in.p, o)
	}
	_, err := core.FindRootsWithMultiplicity(in.p, o)
	return nil, err
}

// libAnswer converts a library answer to the checker's form.
func libAnswer(rs []realroots.Root) []answerRoot {
	out := make([]answerRoot, len(rs))
	for i, r := range rs {
		out[i] = answerRoot{value: r.Value, mult: r.Multiplicity}
	}
	return out
}

// answeredInputs is the inputs that have a first answer, in id order.
func answeredInputs(ins []*input, first [][]answerRoot) []*input {
	var out []*input
	for _, in := range ins {
		if first[in.id] != nil {
			out = append(out, in)
		}
	}
	return out
}

// perInputLatency is each answered input's median call latency in ms.
func perInputLatency(calls []call) map[int]float64 {
	by := map[int][]float64{}
	for _, c := range calls {
		if c.err == nil {
			by[c.in.id] = append(by[c.in.id], c.ms)
		}
	}
	out := map[int]float64{}
	for id, xs := range by {
		out[id] = median(xs)
	}
	return out
}

// repeatedRootFrac sets each input's repeated flag from its Yun
// decomposition and returns the share of inputs with repeated roots.
func repeatedRootFrac(ins []*input) float64 {
	parallel(len(ins), runtime.NumCPU(), func(i int) { ins[i].repeated = len(poly.Yun(ins[i].p)) > 1 })
	n := 0
	for _, in := range ins {
		if in.repeated {
			n++
		}
	}
	return ratio(float64(n), float64(len(ins)))
}

// smallOperandFrac is the share of multiplications and divisions whose
// larger operand has fewer than 256 bits.
func smallOperandFrac(r metrics.Report) float64 {
	t := r.Total()
	small, all := 0.0, 0.0
	for b, n := range t.BitLen {
		if _, hi := metrics.BucketRange(b); hi != 0 && hi <= 256 {
			small += float64(n)
		}
		all += float64(n)
	}
	return ratio(small, all)
}

func mixNote(mix map[string]int) string {
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		var ni, nj, mi, mj int
		fmt.Sscanf(keys[i], "n=%d mu=%d", &ni, &mi)
		fmt.Sscanf(keys[j], "n=%d mu=%d", &nj, &mj)
		if ni != nj {
			return ni < nj
		}
		if mi != mj {
			return mi < mj
		}
		return keys[i] < keys[j]
	})
	s := "degree x mu mix solved:"
	for _, k := range keys {
		s += fmt.Sprintf(" [%s]x%d", k, mix[k])
	}
	return s
}

// propertyNote prints the input-property shares that claims specific
// to a property must cite; a negative cache share means no cache.
func propertyNote(repeated, small, cacheHit float64) string {
	cache := "n/a (no cache on this path)"
	if cacheHit >= 0 {
		cache = fmt.Sprintf("%.4f", cacheHit)
	}
	return fmt.Sprintf("input properties: poly.repeated_root_frac=%.4f mp.small_operand_frac=%.4f server.cache_hit_frac=%s",
		repeated, small, cache)
}
