package poly

import (
	"math/bits"

	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// Eval returns p(t) for an integer point t, by Horner's rule.
func (p *Poly) Eval(t *mp.Int) *mp.Int { return p.EvalScaled(t, 0) }

// EvalScaled evaluates p at the dyadic rational a/2^s, returning the
// scaled integer value
//
//	V = 2^(d·s) · p(a / 2^s) = Σ p_i · a^i · 2^((d-i)·s),  d = deg p,
//
// so that sign(V) = sign(p(a/2^s)) and V = 0 iff a/2^s is a root. This is
// the paper's p_µ trick (§4.3): all arithmetic stays over the integers.
// The Horner recurrence is E_k = E_{k-1}·a + p_{d-k}·2^(k·s), performing
// exactly d multiplications, which is what the paper's evaluation cost
// model counts.
func (p *Poly) EvalScaled(a *mp.Int, s uint) *mp.Int {
	return p.EvalScaledCtx(metrics.Ctx{}, a, s)
}

// EvalScaledCtx is EvalScaled with instrumentation. The result takes
// over the accumulator the evaluation ran in.
func (p *Poly) EvalScaledCtx(ctx metrics.Ctx, a *mp.Int, s uint) *mp.Int {
	if p.IsZero() {
		return new(mp.Int)
	}
	var e Evaluator
	e.exact(ctx, p, a, s)
	if ctx.C != nil {
		e.steps.flushValue()
	}
	return e.acc.View(new(mp.Int))
}

// SignAt returns the sign of p(a/2^s) ∈ {-1, 0, +1}, computed exactly.
func (p *Poly) SignAt(a *mp.Int, s uint) int {
	return p.SignAtCtx(metrics.Ctx{}, a, s)
}

// SignAtCtx is SignAt with instrumentation. A sign the screen decides
// allocates nothing.
func (p *Poly) SignAtCtx(ctx metrics.Ctx, a *mp.Int, s uint) int {
	var e Evaluator
	return e.SignAt(ctx, p, a, s)
}

// An Evaluator evaluates polynomials at dyadic points in one reusable
// Horner accumulator (mp.Horner). Every evaluation sizes the
// accumulator for its final width before the first step, so once an
// Evaluator has served its widest evaluation, an exact evaluation
// allocates nothing, and a screened sign evaluation never touches the
// accumulator. An Evaluator is not safe for concurrent use; the zero
// value is ready to use.
type Evaluator struct {
	acc   mp.Horner
	steps stepTally
}

// SignAt returns the sign of p(a/2^s), recording the evaluation in ctx.
// The certified float64 screen decides the sign when its error bound
// allows, and the exact scaled Horner recurrence otherwise (DESIGN.md
// §8). Either way ctx records the operations of the exact recurrence,
// and counts the evaluation under the kernel that decided it.
func (e *Evaluator) SignAt(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) int {
	if p.IsZero() {
		return 0
	}
	count := ctx.C != nil
	if count {
		e.steps.reset(ctx, a.BitLen())
	}
	sign, ok := e.screen(p, a, s, count)
	kernel := metrics.KernelScreen
	if !ok {
		e.exact(ctx, p, a, s)
		sign, kernel = e.acc.Sign(), metrics.KernelExact
	}
	if count {
		e.steps.flushSign(kernel)
	}
	return sign
}

// EvalScaled returns 2^(d·s)·p(a/2^s) (see Poly.EvalScaled) as a new
// Int, computed exactly and recorded in ctx.
func (e *Evaluator) EvalScaled(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) *mp.Int {
	if p.IsZero() {
		return new(mp.Int)
	}
	e.exact(ctx, p, a, s)
	if ctx.C != nil {
		e.steps.flushValue()
	}
	var v mp.Int
	return new(mp.Int).Set(e.acc.View(&v))
}

// exact leaves E_d of the scaled Horner recurrence for a non-zero p in
// the accumulator and, when ctx counts, the lengths of its d steps in
// e's step tally, restarted here. |E_d| ≤ (d+1)·2^m·2^(d·max(bitlen a,
// s)) for m-bit coefficients, and every E_k and product before it is
// narrower, so one Reserve covers the whole evaluation. Every step runs
// on the accumulator's 32-bit row loop, under either profile; step k
// multiplies E_{k−1} by a, and the tally records it by E_{k−1}'s
// length.
func (e *Evaluator) exact(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) {
	d, abits := p.Degree(), a.BitLen()
	count := ctx.C != nil
	if count {
		e.steps.reset(ctx, abits)
	}
	e.acc.Reserve(p.MaxCoeffBits() + bits.Len(uint(d)) + d*max(abits, int(s)))
	e.acc.Set(p.c[d])
	for k := 1; k <= d; k++ {
		if count {
			e.steps.add(e.acc.BitLen())
		}
		e.acc.Step(a, p.c[d-k], uint(k)*s)
	}
}

// A stepTally collects the bit lengths of E_0, …, E_{d−1}, the
// accumulators an evaluation's d multiplications read, and hands them
// to a metrics.Tally a block at a time: one pass over the lengths, and
// no buffer sized by the degree. Both kernels fill it, so a sign
// records the same operations whichever kernel decided it.
type stepTally struct {
	ctx   metrics.Ctx
	abits int
	n     int
	lens  [32]int
	t     metrics.Tally
}

// reset starts a tally of an evaluation at an abits-bit point.
func (l *stepTally) reset(ctx metrics.Ctx, abits int) {
	l.ctx, l.abits, l.n, l.t = ctx, abits, 0, metrics.Tally{}
}

// add records the length of the accumulator the next step reads.
func (l *stepTally) add(bits int) {
	if l.n == len(l.lens) {
		l.t.Horner(l.ctx, l.lens[:], l.abits)
		l.n = 0
	}
	l.lens[l.n] = bits
	l.n++
}

// flushValue records a value evaluation in the tally's ctx.
func (l *stepTally) flushValue() {
	l.t.Horner(l.ctx, l.lens[:l.n], l.abits)
	l.ctx.FlushEval(&l.t)
}

// flushSign records a sign evaluation that kernel k decided.
func (l *stepTally) flushSign(k metrics.Kernel) {
	l.t.Horner(l.ctx, l.lens[:l.n], l.abits)
	l.ctx.FlushSign(&l.t, k)
}

// SignAtNegInf returns the sign of p(x) as x → -∞: sign(lc)·(-1)^deg.
func (p *Poly) SignAtNegInf() int {
	s := p.Lead().Sign()
	if p.Degree()%2 != 0 {
		s = -s
	}
	return s
}

// SignAtPosInf returns the sign of p(x) as x → +∞.
func (p *Poly) SignAtPosInf() int { return p.Lead().Sign() }

// RootBound returns an integer B ≥ 1 such that every real root of p lies
// strictly inside (-B, B), using the Cauchy bound
// 1 + max_i |p_i| / |p_d| rounded up to the next power of two. The paper
// (§2.2) uses the cruder bound 2^m for m-bit coefficients; a power-of-two
// Cauchy bound keeps every interval endpoint dyadic while staying tight.
func (p *Poly) RootBound() *mp.Int {
	if p.Degree() < 1 {
		return mp.NewInt(1)
	}
	lead := new(mp.Int).Abs(p.Lead())
	maxAbs := new(mp.Int)
	for _, ci := range p.c[:len(p.c)-1] {
		a := new(mp.Int).Abs(ci)
		if a.Cmp(maxAbs) > 0 {
			maxAbs.Set(a)
		}
	}
	// q = ceil(maxAbs / lead); bound = next power of two ≥ q+1.
	q, r := new(mp.Int).QuoRem(maxAbs, lead, new(mp.Int))
	if !r.IsZero() {
		q.Add(q, mp.NewInt(1))
	}
	q.Add(q, mp.NewInt(1))
	bits := uint(q.BitLen())
	b := new(mp.Int).Lsh(mp.NewInt(1), bits)
	if b.Cmp(q) < 0 {
		b.Lsh(b, 1)
	}
	return b
}
