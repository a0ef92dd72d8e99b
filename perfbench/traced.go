package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/core"
	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/server"
	"realroots/internal/trace"
	"realroots/internal/tree"
)

// The traced run replays each solve's sequential pipeline from this
// file, with a span around every call into a layer, after the measured
// phase and never during it. Span names are the layer names the
// per-layer metrics report.
const (
	spanDecode      = "server.decode"
	spanCharPoly    = "charpoly"
	spanSquarefree  = "poly.squarefree"
	spanRemseq      = "remseq"
	spanTree        = "tree"
	spanPreInterval = "interval.preinterval"
	spanInterval    = "interval.solve"
)

// replayItem is one distinct solve the traced run replays.
type replayItem struct {
	in      *input
	library bool         // preprocess as realroots.FindRoots does; otherwise as rootd does
	body    []byte       // rootd: the request body, decoded by the replay
	e2eMS   float64      // the untraced end-to-end latency of this input (median over the measured phase)
	answer  []answerRoot // the checked answer the replay must reproduce
}

// layerResult is the traced run's per-layer metrics and notes.
type layerResult struct {
	metrics          map[string]float64
	notes            []string
	smallOperandFrac float64
}

// replayLayers measures the per-layer metrics on items: the traced
// pipeline replay (against an untraced replay, for the tracing
// overhead), core solves with and without metrics.Counters and with the
// existing tracer attached, and an mp kernel replay of the recorded
// operand sizes. The Chrome trace of the replay is written to cfg.out.
func replayLayers(cfg config, items []*replayItem, coreOpts func(mu uint) core.Options, prof mp.Profile) (*layerResult, error) {
	n := float64(len(items))
	tr := trace.New()
	var tracedWall, untracedWall time.Duration
	for i, it := range items {
		lane := tr.Lane(i, fmt.Sprintf("solve %d: %s", i, it.in.cell()))
		for k := 0; k < 2; k++ {
			traced := (i+k)%2 == 0 // alternate which replay goes first
			l := lane
			if !traced {
				l = nil
			}
			t0 := time.Now()
			got, err := replayOne(l, it, prof)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replay %s (seed %d): %w", it.in.cell(), it.in.seed, err)
			}
			if !sameAnswer(got, it.answer) {
				return nil, fmt.Errorf("replay %s (seed %d) disagrees with the measured answer", it.in.cell(), it.in.seed)
			}
			if traced {
				tracedWall += d
			} else {
				untracedWall += d
			}
		}
	}
	spans := map[string]time.Duration{}
	var spanSum time.Duration
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			spans[s.Name] += s.Dur
			spanSum += s.Dur
		}
	}
	e2e, bodies, matrices := 0.0, 0, 0
	for _, it := range items {
		e2e += it.e2eMS
		if it.body != nil {
			bodies++
		}
		if it.in.rows != nil {
			matrices++
		}
	}

	// Core solves: plain and counted alternate, then one with the tracer.
	var plain, counted time.Duration
	var total metrics.Report
	var tasks int64
	var wall, busy, serial, wait time.Duration
	for i, it := range items {
		o := coreOpts(it.in.mu)
		var c metrics.Counters
		oc := o
		oc.Counters = &c
		for k := 0; k < 2; k++ {
			withCounters := (i+k)%2 == 1
			t0 := time.Now()
			var err error
			if withCounters {
				_, err = solveCore(it.in, oc, it.library)
				counted += time.Since(t0)
			} else {
				_, err = solveCore(it.in, o, it.library)
				plain += time.Since(t0)
			}
			if err != nil {
				return nil, fmt.Errorf("core solve %s: %w", it.in.cell(), err)
			}
		}
		total = total.Add(c.Snapshot())
		ot := o
		ot.Tracer = trace.New()
		res, err := solveCore(it.in, ot, it.library)
		if err != nil {
			return nil, fmt.Errorf("traced core solve %s: %w", it.in.cell(), err)
		}
		if res != nil {
			tasks += res.Stats.Tasks
		}
		sum := ot.Tracer.Summarize()
		wall += sum.Wall
		busy += sum.Busy
		serial += time.Duration(sum.SerialFraction * float64(sum.Wall))
		for _, l := range sum.Lanes {
			wait += l.Wait
		}
	}

	t := total.Total()
	tiers := 0.0
	for _, v := range t.Tiers {
		tiers += float64(v)
	}
	res := &layerResult{metrics: map[string]float64{
		"poly.squarefree_ms_per_solve":      ms(spans[spanSquarefree]) / n,
		"remseq.ms_per_solve":               ms(spans[spanRemseq]) / n,
		"tree.ms_per_solve":                 ms(spans[spanTree]) / n,
		"interval.preinterval_ms_per_solve": ms(spans[spanPreInterval]) / n,
		"interval.solve_ms_per_solve":       ms(spans[spanInterval]) / n,
		"interval.sieve_muls_per_solve":     float64(total.Phases[metrics.PhaseSieve].Muls) / n,
		"interval.bisection_muls_per_solve": float64(total.Phases[metrics.PhaseBisection].Muls) / n,
		"interval.newton_muls_per_solve":    float64(total.Phases[metrics.PhaseNewton].Muls) / n,
		"sched.tasks_per_solve":             float64(tasks) / n,
		"sched.queue_wait_ms_per_solve":     ms(wait) / n,
		"sched.parallelism":                 ratio(float64(busy), float64(wall)),
		"sched.serial_frac":                 ratio(float64(serial), float64(wall)),
		"mp.muls_per_solve":                 float64(t.Muls) / n,
		"mp.divs_per_solve":                 float64(t.Divs) / n,
		"mp.small_operand_frac":             smallOperandFrac(total),
		"mp.tier_frac.packed":               ratio(float64(t.Tiers[mp.TierPacked]), tiers),
		"mp.tier_frac.karatsuba":            ratio(float64(t.Tiers[mp.TierKaratsuba]), tiers),
		"mp.tier_frac.toom3":                ratio(float64(t.Tiers[mp.TierToom3]), tiers),
		"mp.replay_ms_per_solve":            replayMP(total, prof, cfg.seed, n),
		"metrics.counter_tax_ms_per_solve":  ms(counted-plain) / n,
		"charpoly.ms_per_matrix":            ratio(ms(spans[spanCharPoly]), float64(matrices)),
		"server.decode_us_per_req":          ratio(float64(spans[spanDecode])/float64(time.Microsecond), float64(bodies)),
		"bench.trace_overhead_frac":         ratio(float64(tracedWall), float64(untracedWall)) - 1,
		"core.unattributed_frac":            1 - ratio(ms(spanSum), e2e),
	}}
	res.smallOperandFrac = res.metrics["mp.small_operand_frac"]

	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := writeChrome(tr, path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("traced replay of %d distinct inputs; layer spans sum to %.1f ms of %.1f ms untraced end-to-end (core.unattributed_frac)", len(items), ms(spanSum), e2e),
		fmt.Sprintf("replay wall: traced %.1f ms, untraced %.1f ms (bench.trace_overhead_frac)", ms(tracedWall), ms(untracedWall)),
		"chrome trace: "+path+" (open in chrome://tracing or ui.perfetto.dev)")
	return res, nil
}

func writeChrome(tr *trace.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// factor is one squarefree factor to solve and the multiplicity its
// roots carry.
type factor struct {
	p    *poly.Poly
	mult int
}

// replayOne replays one solve, recording layer spans on lane (a nil
// lane records nothing), and returns its roots.
func replayOne(lane *trace.Lane, it *replayItem, prof mp.Profile) ([]answerRoot, error) {
	p := it.in.p
	if it.body != nil {
		lane.Begin(spanDecode, trace.CatTask)
		_, err := server.DecodeSolveRequest(it.body)
		lane.End()
		if err != nil {
			return nil, err
		}
	}
	if it.in.rows != nil {
		lane.Begin(spanCharPoly, trace.CatTask)
		m, err := charpoly.FromRows(it.in.rows)
		if err == nil {
			p = charpoly.CharPolyProfile(m, prof)
		}
		lane.End()
		if err != nil {
			return nil, err
		}
	}

	lane.Begin(spanSquarefree, trace.CatTask)
	var factors []factor
	if it.library && p.IsSquarefree() {
		// realroots.FindRoots' check, then core.FindRoots' own.
		if !p.IsSquarefreeProfile(prof) {
			p = p.SquarefreePartProfile(prof)
		}
		factors = []factor{{p, 1}}
	} else {
		// core.FindRootsWithMultiplicity: Yun, then each factor's check.
		for k, u := range poly.Yun(p) {
			if u.Degree() < 1 {
				continue
			}
			if !u.IsSquarefreeProfile(prof) {
				u = u.SquarefreePartProfile(prof)
			}
			factors = append(factors, factor{u, k + 1})
		}
	}
	lane.End()

	var out []answerRoot
	for _, f := range factors {
		roots, err := replayPipeline(lane, f.p, it.in.mu, prof)
		if err != nil {
			return nil, err
		}
		for _, r := range roots {
			out = append(out, answerRoot{value: r.Rat(), mult: f.mult})
		}
	}
	for i := 1; i < len(out); i++ { // factors' roots are disjoint and each sorted
		for j := i; j > 0 && out[j].value.Cmp(out[j-1].value) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

// replayPipeline is the sequential pipeline core runs on a squarefree
// polynomial: the remainder sequence, then the tree polynomials and the
// interval problems node by node in post-order.
func replayPipeline(lane *trace.Lane, p *poly.Poly, mu uint, prof mp.Profile) ([]dyadic.Dyadic, error) {
	mctx := metrics.Ctx{Profile: prof}
	n := p.Degree()
	if n == 1 {
		lane.Begin(spanInterval, trace.CatTask)
		roots := interval.NewSolver(p, nil, p.RootBound(), mu, interval.MethodHybrid, mctx).SolveAll()
		lane.End()
		return roots, nil
	}
	lane.Begin(spanRemseq, trace.CatTask)
	seq, err := remseq.Compute(p, remseq.Options{Ctx: mctx})
	if err == nil {
		err = seq.Validate()
	}
	lane.End()
	if err != nil {
		return nil, err
	}
	root := tree.Build(n)
	bound := p.RootBound()
	root.Walk(func(nd *tree.Node) {
		lane.Begin(spanTree, trace.CatTask)
		tree.ComputePoly(seq, mctx, nd)
		lane.End()
		ys := mergeRoots(nd)
		lane.Begin(spanPreInterval, trace.CatTask)
		s := interval.NewSolver(nd.P, ys, bound, mu, interval.MethodHybrid, mctx)
		for i := 0; i < s.NumPoints(); i++ {
			s.EvalPoint(i)
		}
		lane.End()
		roots := make([]dyadic.Dyadic, s.NumRoots())
		for i := range roots {
			lane.Begin(spanInterval, trace.CatTask)
			roots[i] = s.SolveInterval(i)
			lane.End()
		}
		nd.Roots = roots
	})
	return root.Roots, nil
}

// mergeRoots merges a node's children's sorted roots (core's SORT task).
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
	return append(out, right[j:]...)
}

// replayMP times mp.Int.MulProfile and QuoRemProfile on random operands
// shaped like the recorded ones, and scales the mean cost per operation
// to the recorded operations per solve: the arithmetic kernel floor.
// Each replayed operation draws a phase by its operation count, then
// the larger operand's size from that phase's log₂ bit-length
// histogram; the histogram keeps only the larger size, so the smaller
// one is that size times the phase's ratio that makes the replay's
// Σ bitlen·bitlen match the recorded one. Divisions divide the larger
// operand by the smaller.
func replayMP(rep metrics.Report, prof mp.Profile, seed int64, solves float64) float64 {
	t := rep.Total()
	ops := t.Muls + t.Divs
	if ops == 0 {
		return 0
	}
	shape := make([]float64, metrics.NumPhases) // smaller/larger operand size, per phase
	for p, pr := range rep.Phases {
		sq := 0.0
		for b, c := range pr.BitLen {
			m := bucketMid(b)
			sq += float64(c) * m * m
		}
		shape[p] = min(1, ratio(float64(pr.MulBits+pr.DivBits), sq))
	}
	r := rand.New(rand.NewSource(derive(seed, streamOperands)))
	const batch, batches = 256, 32
	xs, ys := make([]*mp.Int, batch), make([]*mp.Int, batch)
	div := make([]bool, batch)
	z, q, rem := new(mp.Int), new(mp.Int), new(mp.Int)
	var elapsed time.Duration
	for b := 0; b < batches; b++ {
		for i := range xs {
			x := r.Int63n(ops)
			p := 0
			for ; x >= rep.Phases[p].Muls+rep.Phases[p].Divs; p++ {
				x -= rep.Phases[p].Muls + rep.Phases[p].Divs
			}
			pr := rep.Phases[p]
			div[i] = x >= pr.Muls
			large := drawBits(r, pr.BitLen[:])
			xs[i] = randBits(r, large)
			ys[i] = randBits(r, max(1, int(shape[p]*float64(large)+0.5)))
		}
		t0 := time.Now()
		for i := range xs {
			if div[i] {
				q.QuoRemProfile(prof, xs[i], ys[i], rem)
			} else {
				z.MulProfile(prof, xs[i], ys[i])
			}
		}
		elapsed += time.Since(t0)
	}
	return ms(elapsed) / (batch * batches) * float64(ops) / solves
}

// bucketMid is the geometric middle of a bit-length histogram bucket.
func bucketMid(b int) float64 {
	lo, hi := metrics.BucketRange(b)
	if hi == 0 {
		return float64(lo)
	}
	return math.Sqrt(float64(max(1, lo)) * float64(hi))
}

// drawBits draws an operand size from a log₂ bit-length histogram: a
// bucket by its count, then a size uniformly within the bucket.
func drawBits(r *rand.Rand, hist []int64) int {
	var all int64
	for _, c := range hist {
		all += c
	}
	x := r.Int63n(all)
	for b, c := range hist {
		if x < c {
			lo, hi := metrics.BucketRange(b)
			if hi == 0 {
				hi = lo + 1
			}
			return max(1, lo+r.Intn(hi-lo))
		}
		x -= c
	}
	return 1
}

// randBits returns a random non-negative integer of exactly bits bits.
func randBits(r *rand.Rand, bits int) *mp.Int {
	z := mp.RandNonNeg(r, bits-1)
	return z.Add(z, new(mp.Int).Lsh(mp.NewInt(1), uint(bits-1)))
}
