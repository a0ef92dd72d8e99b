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
	e.horner(ctx, p, a, s)
	return e.acc.View(new(mp.Int))
}

// SignAt returns the sign of p(a/2^s) ∈ {-1, 0, +1}, computed exactly.
func (p *Poly) SignAt(a *mp.Int, s uint) int {
	return p.SignAtCtx(metrics.Ctx{}, a, s)
}

// SignAtCtx is SignAt with instrumentation.
func (p *Poly) SignAtCtx(ctx metrics.Ctx, a *mp.Int, s uint) int {
	var e Evaluator
	return e.SignAt(ctx, p, a, s)
}

// An Evaluator evaluates polynomials at dyadic points in one reusable
// Horner accumulator (mp.Horner). Every evaluation sizes the
// accumulator for its final width before the first step, so once an
// Evaluator has served its widest evaluation, a sign evaluation
// allocates nothing. An Evaluator is not safe for concurrent use; the
// zero value is ready to use.
type Evaluator struct {
	acc mp.Horner
}

// SignAt returns the sign of p(a/2^s), recording the evaluation in ctx.
func (e *Evaluator) SignAt(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) int {
	if p.IsZero() {
		return 0
	}
	e.horner(ctx, p, a, s)
	return e.acc.Sign()
}

// EvalScaled returns 2^(d·s)·p(a/2^s) (see Poly.EvalScaled) as a new
// Int, recording the evaluation in ctx.
func (e *Evaluator) EvalScaled(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) *mp.Int {
	if p.IsZero() {
		return new(mp.Int)
	}
	e.horner(ctx, p, a, s)
	var v mp.Int
	return new(mp.Int).Set(e.acc.View(&v))
}

// horner leaves E_d of the scaled Horner recurrence for a non-zero p in
// the accumulator. |E_d| ≤ (d+1)·2^m·2^(d·max(bitlen a, s)) for m-bit
// coefficients, and every E_k and product before it is narrower, so one
// Reserve covers the whole evaluation. Every step runs on the
// accumulator's 32-bit row loop, under either profile. The d
// multiplications and d additions are tallied locally, by operand shape
// as ctx's profile would dispatch them, and reach ctx's counters in one
// flush.
func (e *Evaluator) horner(ctx metrics.Ctx, p *Poly, a *mp.Int, s uint) {
	d, abits := p.Degree(), a.BitLen()
	e.acc.Reserve(p.MaxCoeffBits() + bits.Len(uint(d)) + d*max(abits, int(s)))
	e.acc.Set(p.c[d])
	count := ctx.C != nil
	var t metrics.Tally
	for k := 1; k <= d; k++ {
		if count {
			t.Mul(ctx, e.acc.BitLen(), abits)
			t.Add()
		}
		e.acc.Step(a, p.c[d-k], uint(k)*s)
	}
	ctx.FlushEval(&t)
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

// PseudoRem computes the pseudo-remainder of u by v (deg v ≤ deg u,
// v ≠ 0): prem = lc(v)^(deg u - deg v + 1) · u  mod  v, which has integer
// coefficients. Used by the Sturm baseline.
func PseudoRem(u, v *Poly) *Poly { return PseudoRemProfile(u, v, mp.Schoolbook) }

// PseudoRemProfile is PseudoRem with the coefficient arithmetic
// dispatched by pr (unrecorded; see GCDProfile).
func PseudoRemProfile(u, v *Poly, pr mp.Profile) *Poly {
	return pseudoRem(metrics.Ctx{Profile: pr}, u, v)
}

// pseudoRem is PseudoRem with the arithmetic dispatched by uctx, which
// must carry no counters.
func pseudoRem(uctx metrics.Ctx, u, v *Poly) *Poly {
	if v.IsZero() {
		panic("poly: PseudoRem by zero")
	}
	du, dv := u.Degree(), v.Degree()
	if du < dv {
		r := u.Clone()
		return r
	}
	r := u.Clone()
	lead := v.Lead()
	for r.Degree() >= dv && !r.IsZero() {
		dr := r.Degree()
		// r = lead·r - r_lead·x^(dr-dv)·v
		rl := new(mp.Int).Set(r.Lead())
		r = r.ScaleIntCtx(uctx, lead)
		shift := make([]*mp.Int, dr-dv+1)
		for i := range shift {
			shift[i] = new(mp.Int)
		}
		shift[dr-dv] = rl
		sub := (&Poly{c: shift}).MulCtx(uctx, v)
		r = r.Sub(sub)
		if r.Degree() == dr {
			panic("poly: PseudoRem failed to reduce degree")
		}
	}
	return r
}
