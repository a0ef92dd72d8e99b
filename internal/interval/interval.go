// Package interval solves the paper's Interval Problems (§2.2): given a
// polynomial P with d distinct real roots and the µ-approximations
// ỹ_1 ≤ … ≤ ỹ_{d-1} of a set of interleaving values, compute the
// µ-approximation x̃ = 2^-µ·⌈2^µ·x⌉ of every root x of P.
//
// Because only approximations of the interleaving values are known, each
// gap [ỹ_i, ỹ_{i+1}] is first classified by the paper's case analysis
// (cases 1, 2a, 2b, 2c) using exact sign evaluations and the root count
// r_i; only case 2c leaves a true isolating interval, which is then
// refined by the hybrid method: a double-exponential sieve, ⌈log₂(10d²)⌉
// bisections, and Newton iterations with doubling precision (safeguarded
// by the bracketing interval, so a Newton step that leaves the bracket
// degenerates to a bisection and correctness never depends on
// convergence assumptions). All arithmetic is exact over scaled
// integers; the final grid decision is made by one exact sign test, so
// results are bit-for-bit correct µ-approximations.
package interval

import (
	"fmt"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// Method selects the root-refinement strategy for case 2c.
type Method int

const (
	// MethodHybrid is the paper's: sieve, then ⌈log₂(10d²)⌉ bisections,
	// then safeguarded Newton.
	MethodHybrid Method = iota
	// MethodBisection bisects all the way to the grid (ablation; also the
	// classic baseline behaviour).
	MethodBisection
	// MethodNewton starts safeguarded Newton immediately (ablation).
	MethodNewton
)

func (m Method) String() string {
	switch m {
	case MethodHybrid:
		return "hybrid"
	case MethodBisection:
		return "bisection"
	case MethodNewton:
		return "newton"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// A Solver computes µ-approximations of all roots of one polynomial.
// Usage: construct with NewSolver, run the EvalPoint tasks (the paper's
// PREINTERVAL tasks, independent of one another), then the
// SolveInterval tasks (the INTERVAL tasks, independent of one another).
// SolveAll runs everything sequentially.
type Solver struct {
	P      *poly.Poly
	dP     *poly.Poly
	Mu     uint
	Method Method

	ctx    metrics.Ctx
	ys     []dyadic.Dyadic // d+1 points: -B, ỹ_1…ỹ_{d-1}, +B, all on the 2^-µ grid
	signs  []int           // sgnRight of P at each point, filled by EvalPoint
	negInf int             // sign of P at -∞
}

// NewSolver prepares the interval problems for p given the sorted
// µ-approximations of its interleaving values (len = deg p - 1) and a
// power-of-two root bound B with every root of p in (-B, B). All
// interleaving values must lie on the 2^-µ grid.
func NewSolver(p *poly.Poly, interleaving []dyadic.Dyadic, bound *mp.Int, mu uint, method Method, ctx metrics.Ctx) *Solver {
	d := p.Degree()
	if d < 1 {
		panic("interval: polynomial has no roots")
	}
	if len(interleaving) != d-1 {
		panic(fmt.Sprintf("interval: %d interleaving points for degree %d", len(interleaving), d))
	}
	ys := make([]dyadic.Dyadic, d+1)
	ys[0] = dyadic.FromInt(new(mp.Int).Neg(bound))
	for i, y := range interleaving {
		if !y.OnGrid(mu) {
			panic(fmt.Sprintf("interval: interleaving point %v not on the 2^-%d grid", y, mu))
		}
		if i > 0 && interleaving[i-1].Cmp(y) > 0 {
			panic("interval: interleaving points not sorted")
		}
		ys[i+1] = y
	}
	ys[d] = dyadic.FromInt(bound)
	return &Solver{
		P: p, dP: p.Derivative(), Mu: mu, Method: method,
		ctx: ctx, ys: ys, signs: make([]int, d+1), negInf: p.SignAtNegInf(),
	}
}

// NumRoots returns the number of interval problems (= deg P).
func (s *Solver) NumRoots() int { return len(s.ys) - 1 }

// NumPoints returns the number of PREINTERVAL evaluation points.
func (s *Solver) NumPoints() int { return len(s.ys) }

// EvalPoint computes the PREINTERVAL sign for point index i (0-based,
// 0 ≤ i ≤ deg P): the sign of P immediately to the right of the point,
// sign(P(t)) when non-zero, else sign(P′(t)) (P is squarefree, so they
// never vanish together). Each call is independent — the paper runs one
// task per evaluation (§3.2).
func (s *Solver) EvalPoint(i int) {
	var ev poly.Evaluator
	ctx, t := s.ctx.In(metrics.PhasePreInterval), s.ys[i]
	sg := ev.SignAt(ctx, s.P, t.Num(), t.Scale())
	if sg == 0 {
		sg = ev.SignAt(ctx, s.dP, t.Num(), t.Scale())
	}
	if sg == 0 {
		panic("interval: P and P' vanish together (input not squarefree)")
	}
	s.signs[i] = sg
}

// A task is one SolveInterval call: the solver plus the evaluator that
// every sign evaluation of the call reuses, so the bracket refinement
// evaluates in one accumulator, and the integer widthLE measures
// brackets in. Tasks for distinct intervals share nothing mutable and
// may run concurrently.
type task struct {
	*Solver
	ev    poly.Evaluator
	width mp.Int
}

// expectSign returns the sign of P just right of a point below which m
// roots lie (counting roots ≤ the point): sgn(P(-∞))·(-1)^m.
func (s *Solver) expectSign(m int) int {
	if m%2 == 0 {
		return s.negInf
	}
	return -s.negInf
}

// SolveInterval solves interval problem i (0-based root index,
// 0 ≤ i < deg P), returning the µ-approximation x̃_i of the i-th
// smallest root. All EvalPoint calls must have completed first. Calls
// for distinct i are independent.
func (s *Solver) SolveInterval(i int) dyadic.Dyadic {
	a, b := s.ys[i], s.ys[i+1]
	step := dyadic.GridStep(s.Mu)

	// Case 1: coincident approximations pin the root immediately.
	if a.Equal(b) {
		return a
	}

	// Case 2: ỹ_{i+1} - ỹ_i ≥ 2^-µ. Let m(t) = #{roots ≤ t}. The
	// interleaving property gives m(a) ∈ {i, i+1} (this is the paper's
	// r_i computation, extended to handle P(a) = 0 exactly via the
	// one-sided sign).
	if s.signs[i] == s.expectSign(i+1) {
		// Case 2a: m(a) = i+1, so x_i ∈ (ỹ_i - 2^-µ, ỹ_i]: x̃_i = ỹ_i.
		return a
	}
	if s.signs[i] != s.expectSign(i) {
		panic(fmt.Sprintf("interval: inconsistent sign at point %d (roots not interleaved?)", i))
	}

	// m(a) = i: the root lies in (a, b]. Split at c = b - 2^-µ.
	c := b.Sub(step)
	if c.Cmp(a) <= 0 {
		// Gap of exactly one grid step: x_i ∈ (a, b] = (b - 2^-µ, b].
		return b
	}
	t := &task{Solver: s}
	sc := t.signAt(metrics.PhasePreInterval, c)
	if sc == 0 {
		return c // x_i = c exactly, already on the grid
	}
	if sc == s.expectSign(i+1) {
		// m(c) = i+1 would give sign parity i+1 just right of c; but an
		// exact-zero-free sign at c equals the one-sided sign. Root ≤ c.
		// Fall through to refinement over (a, c).
	} else {
		// Case 2b: m(c) = i, so x_i ∈ (c, b] = (ỹ_{i+1} - 2^-µ, ỹ_{i+1}]:
		// x̃_i = ỹ_{i+1}.
		return b
	}

	// Case 2c: x_i is the only root of P in (a, c), with
	// sign(P) = sl on (a, x_i) and -sl on (x_i, c].
	return t.refine(a, c, s.signs[i])
}

// SolveAll computes all d root approximations sequentially (the
// parallel driver issues EvalPoint and SolveInterval as separate tasks
// instead). The result is sorted ascending.
func (s *Solver) SolveAll() []dyadic.Dyadic {
	for i := 0; i < s.NumPoints(); i++ {
		s.EvalPoint(i)
	}
	roots := make([]dyadic.Dyadic, s.NumRoots())
	for i := range roots {
		roots[i] = s.SolveInterval(i)
	}
	return roots
}

// signAt evaluates sign(P) at a dyadic point under the given phase.
func (s *task) signAt(phase metrics.Phase, t dyadic.Dyadic) int {
	return s.ev.SignAt(s.ctx.In(phase), s.P, t.Num(), t.Scale())
}

// finish makes the exact grid decision once the bracket (lo, hi) around
// the root has width ≤ 2^-µ, using at most one more sign evaluation.
// sl is the sign of P on (lo, root).
func (s *task) finish(phase metrics.Phase, lo, hi dyadic.Dyadic, sl int) dyadic.Dyadic {
	step := dyadic.GridStep(s.Mu)
	// g = smallest grid point strictly greater than lo.
	g := lo.CeilGrid(s.Mu)
	if g.Equal(lo) {
		g = g.Add(step)
	}
	if g.Cmp(hi) >= 0 {
		// No grid point inside (lo, hi): every point of the bracket
		// rounds up to g.
		return g
	}
	sg := s.signAt(phase, g)
	if sg == 0 || sg != sl {
		return g // root ≤ g
	}
	return g.Add(step) // root ∈ (g, hi), hi ≤ lo + 2^-µ < g + 2^-µ
}

// one is the integer 1, never modified.
var one = mp.NewInt(1)

// widthLE reports whether hi-lo ≤ 2^-µ. With both endpoints at the
// common scale w, the difference n/2^w is built in the task's width
// integer, whose storage the bracket's later widths reuse, and n is
// compared with 2^(w-µ); no Dyadic is built.
func (s *task) widthLE(lo, hi dyadic.Dyadic) bool {
	w := max(lo.Scale(), hi.Scale())
	n := s.width.SubLsh(hi.Num(), w-hi.Scale(), lo.Num(), w-lo.Scale())
	switch {
	case n.Sign() <= 0:
		return true
	case w < s.Mu:
		return false
	}
	return mp.CmpLsh(n, 0, one, w-s.Mu) <= 0
}

// refine computes x̃ for the unique root of P in the open interval
// (lo, hi), where sign(P) = sl just right of lo and -sl just left of hi.
func (s *task) refine(lo, hi dyadic.Dyadic, sl int) dyadic.Dyadic {
	switch s.Method {
	case MethodBisection:
		return s.bisectToGrid(metrics.PhaseBisection, lo, hi, sl)
	case MethodNewton:
		return s.newton(lo, hi, sl)
	default:
		lo, hi, exact, done := s.sieve(lo, hi, sl)
		if done {
			return exact
		}
		lo, hi, exact, done = s.bisectN(lo, hi, sl, ceilLog2(10*int64(s.P.Degree())*int64(s.P.Degree())))
		if done {
			return exact
		}
		return s.newton(lo, hi, sl)
	}
}

// sieve is the double-exponential sieve (§2.2), generalized to work
// from whichever end of the interval the root hugs (the paper sieves
// from the left endpoint "without loss of generality"; the mirrored
// case matters in practice because the outermost intervals stretch to
// the ±2^R root bounds and their roots hug the inner end). Starting
// from I = (lo, hi), it probes the points at distance length/2^(2^i)
// from the hugged end until the root escapes between two consecutive
// probes, and repeats on that band; it stops once the root is located
// in the middle half of the current interval, so that the bisection
// phase starts with the root at distance ≥ length/4 from both ends.
// Returns (lo, hi, exact, done): done means an exact grid answer was
// found on the way.
func (s *task) sieve(lo, hi dyadic.Dyadic, sl int) (dyadic.Dyadic, dyadic.Dyadic, dyadic.Dyadic, bool) {
	const maxExp = 20 // a 2^(2^20)-fold shrink per probe is beyond any real input
	for !s.widthLE(lo, hi) {
		length := hi.Sub(lo)
		mid := lo.Add(length.Half())
		sm := s.signAt(metrics.PhaseSieve, mid)
		if sm == 0 {
			return lo, hi, mid.CeilGrid(s.Mu), true
		}
		hugLeft := sm != sl // root in (lo, mid) vs (mid, hi)
		prev := mid
		escapedAt := -1
		for i := 1; i <= maxExp; i++ {
			var t dyadic.Dyadic
			if hugLeft {
				t = lo.Add(length.MulPow2(-(1 << i)))
			} else {
				t = hi.Sub(length.MulPow2(-(1 << i)))
			}
			st := s.signAt(metrics.PhaseSieve, t)
			if st == 0 {
				return lo, hi, t.CeilGrid(s.Mu), true
			}
			if hugLeft && st == sl {
				// Root in (t, prev).
				lo, hi = t, prev
				escapedAt = i
				break
			}
			if !hugLeft && st != sl {
				// Root in (prev, t).
				lo, hi = prev, t
				escapedAt = i
				break
			}
			prev = t
		}
		switch {
		case escapedAt == -1:
			// The root hugs the end closer than 2^-(2^maxExp) of the
			// interval; collapse to the smallest probed band and re-loop.
			if hugLeft {
				hi = prev
			} else {
				lo = prev
			}
		case escapedAt == 1:
			// Root caught between the quarter point and the midpoint:
			// it is at distance ≥ length/4 from both original ends, the
			// two-sided analogue of the paper's "ξ ≥ a + l/2" exit.
			return lo, hi, dyadic.Dyadic{}, false
		}
	}
	return lo, hi, dyadic.Dyadic{}, false
}

// bisect halves the bracket (lo, hi) once, with one sign evaluation
// under phase; sl is the sign of P on (lo, root). The boolean result
// reports an exact hit, whose grid answer is returned.
func (s *task) bisect(phase metrics.Phase, lo, hi *dyadic.Dyadic, sl int) (dyadic.Dyadic, bool) {
	mid := lo.Mid(*hi)
	sm := s.signAt(phase, mid)
	if sm == 0 {
		return mid.CeilGrid(s.Mu), true
	}
	if sm == sl {
		*lo = mid
	} else {
		*hi = mid
	}
	return dyadic.Dyadic{}, false
}

// bisectN performs up to n bisection steps of the bracket, stopping
// early at grid resolution. Same return convention as sieve.
func (s *task) bisectN(lo, hi dyadic.Dyadic, sl int, n int) (dyadic.Dyadic, dyadic.Dyadic, dyadic.Dyadic, bool) {
	for t := 0; t < n && !s.widthLE(lo, hi); t++ {
		if exact, hit := s.bisect(metrics.PhaseBisection, &lo, &hi, sl); hit {
			return lo, hi, exact, true
		}
	}
	return lo, hi, dyadic.Dyadic{}, false
}

// bisectToGrid bisects until the bracket reaches grid width, then
// finishes exactly.
func (s *task) bisectToGrid(phase metrics.Phase, lo, hi dyadic.Dyadic, sl int) dyadic.Dyadic {
	for !s.widthLE(lo, hi) {
		if exact, hit := s.bisect(phase, &lo, &hi, sl); hit {
			return exact
		}
	}
	return s.finish(phase, lo, hi, sl)
}

// newton runs the safeguarded Newton iteration with doubling working
// precision (Lemma 2.1 guarantees quadratic convergence from a good
// start). Because Newton approaches the root from one side, waiting for
// the *bracket* to reach grid width would forfeit the quadratic rate;
// instead, once the Newton step is below the grid resolution the
// iterate is verified exactly by probing a width-2^-µ sub-bracket
// around it (two sign tests, both inside the isolating bracket so the
// single-root invariant keeps them conclusive). Every probe also
// tightens the bracket, and a stall detector degrades to bisection, so
// termination is unconditional.
func (s *task) newton(lo, hi dyadic.Dyadic, sl int) dyadic.Dyadic {
	ctx := s.ctx.In(metrics.PhaseNewton)
	// Working-precision floor-of-the-ceiling: 16 guard bits beyond µ keep
	// the iterate rounding floor well inside the 2^-(µ+1) verification
	// window.
	maxScale := s.Mu + 16
	halfStep := dyadic.GridStep(s.Mu + 1)
	alpha := lo.Mid(hi)
	backoff := 1 // plain bisection steps after a failed Newton attempt

	for !s.widthLE(lo, hi) {
		// Newton attempt: evaluate P at alpha and update the bracket.
		w := alpha.Scale()
		a := alpha.Num()
		v := s.ev.EvalScaled(ctx, s.P, a, w)
		sg := v.Sign()
		if sg == 0 {
			return alpha.CeilGrid(s.Mu)
		}
		if sg == sl {
			lo = alpha
		} else {
			hi = alpha
		}
		if s.widthLE(lo, hi) {
			break
		}

		ok := false
		converged := false
		var next dyadic.Dyadic
		dv := s.ev.EvalScaled(ctx, s.dP, a, w)
		if !dv.IsZero() {
			// α' = α - P(α)/P′(α) = (a·2^e - round(v·2^e / dv)) / 2^(w+e),
			// with e extra bits of precision, doubling up to µ+4.
			e := w
			if e < 8 {
				e = 8
			}
			if w+e > maxScale {
				if w >= maxScale {
					e = 4
				} else {
					e = maxScale - w
				}
			}
			num := new(mp.Int).Lsh(v, e)
			q := roundDiv(ctx, num, dv)
			an := new(mp.Int).Lsh(a, e)
			an.Sub(an, q)
			next = dyadic.New(an, w+e)
			// Cap the iterate's scale at twice the current accuracy (the
			// step size) plus guard bits — the natural schedule for an
			// iteration that doubles its accurate bits — never below
			// µ+16. Without the cap the scale grows with every iteration
			// regardless of progress, inflating evaluation cost beyond
			// the paper's X = R+µ bound (most visibly in the pure-Newton
			// ablation, where the iterate marches across a huge
			// boundary gap).
			rawStep := next.Sub(alpha)
			capScale := maxScale
			if !rawStep.Num().IsZero() {
				stepBits := int(rawStep.Scale()) - rawStep.Num().BitLen() + 1
				if stepBits < 0 {
					stepBits = 0
				}
				if c := uint(2*stepBits) + 16; c > capScale {
					capScale = c
				}
			}
			if next.Scale() > capScale {
				next = next.FloorGrid(capScale)
			}
			step := next.Sub(alpha)
			if step.Sign() < 0 {
				step = step.Neg()
			}
			converged = w+e >= maxScale && step.Cmp(halfStep) <= 0
			ok = next.Cmp(lo) > 0 && next.Cmp(hi) < 0
		}

		if ok && converged {
			// Probe the half-grid cell around the (putative) converged
			// iterate. Both probes stay inside (lo, hi), so a sign change
			// certifies a bracket of width ≤ 2^-µ.
			b1 := next.Sub(halfStep)
			if b1.Cmp(lo) < 0 {
				b1 = lo
			}
			b2 := next.Add(halfStep)
			if b2.Cmp(hi) > 0 {
				b2 = hi
			}
			s1 := sl
			if b1.Cmp(lo) > 0 {
				s1 = s.signAt(metrics.PhaseNewton, b1)
				if s1 == 0 {
					return b1.CeilGrid(s.Mu)
				}
				if s1 == sl {
					lo = b1
				} else {
					hi = b1
				}
			}
			if s1 == sl {
				s2 := -sl
				if b2.Cmp(hi) < 0 {
					s2 = s.signAt(metrics.PhaseNewton, b2)
					if s2 == 0 {
						return b2.CeilGrid(s.Mu)
					}
					if s2 == sl {
						lo = b2
					} else {
						hi = b2
					}
				}
				if s2 != sl && s.widthLE(b1, b2) {
					return s.finish(metrics.PhaseNewton, b1, b2, sl)
				}
			}
			ok = false // verification failed; probes tightened the bracket
		}

		if ok {
			// Accepted Newton step: quadratic progress expected.
			backoff = 1
			if next.Equal(alpha) {
				next = lo.Mid(hi)
			}
			alpha = next
			continue
		}

		// Rejected step (outside bracket, flat derivative, or failed
		// verification): the start is outside Newton's basin. Take an
		// exponentially growing number of plain bisection steps (one
		// evaluation each) before retrying Newton, so the worst case
		// degrades to ≈ 2× pure bisection while quadratic behaviour is
		// recovered as soon as the basin is reached (Lemma 2.1).
		for t := 0; t < backoff && !s.widthLE(lo, hi); t++ {
			if exact, hit := s.bisect(metrics.PhaseNewton, &lo, &hi, sl); hit {
				return exact
			}
		}
		if backoff < 1<<20 {
			backoff *= 2
		}
		alpha = lo.Mid(hi)
	}
	return s.finish(metrics.PhaseNewton, lo, hi, sl)
}

// roundDiv returns the integer nearest to a/b (ties away from zero),
// recording the division in ctx and dividing under its profile.
func roundDiv(ctx metrics.Ctx, a, b *mp.Int) *mp.Int {
	q, r := ctx.QuoRem(new(mp.Int), a, b, new(mp.Int))
	if r.IsZero() {
		return q
	}
	r2 := new(mp.Int).Lsh(r, 1)
	if r2.CmpAbs(b) >= 0 {
		if (a.Sign() < 0) != (b.Sign() < 0) {
			q.Sub(q, mp.NewInt(1))
		} else {
			q.Add(q, mp.NewInt(1))
		}
	}
	return q
}

// ceilLog2 returns ⌈log₂ v⌉ for v ≥ 1.
func ceilLog2(v int64) int {
	n := 0
	for p := int64(1); p < v; p <<= 1 {
		n++
	}
	return n
}
