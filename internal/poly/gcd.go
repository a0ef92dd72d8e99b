package poly

import (
	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// GCD returns the greatest common divisor of a and b in ℤ[x], computed
// with a primitive pseudo-remainder sequence. The result is primitive
// with a positive leading coefficient (up to integer content, which is
// irrelevant for root sets); GCD(0, 0) == 0. It is used by Yun's
// squarefree decomposition and by the Sturm and Descartes baselines.
func GCD(a, b *Poly) *Poly { return GCDProfile(a, b, mp.Schoolbook) }

// GCDProfile is GCD with the coefficient arithmetic dispatched by pr.
// The work is not recorded in any metrics counters: squarefree
// decomposition sits outside the paper's cost model, so both profiles
// produce identical traces and differ only in wall time.
//
// Schoolbook uses the primitive PRS above — an integer content GCD per
// step. Fast uses Collins' subresultant PRS instead: each pseudo-
// remainder is divided by the predicted factor g·h^d, an exact division
// with a known divisor, so the per-step content GCDs (quadratic in the
// multi-thousand-bit PRS coefficients) disappear entirely; a content
// is taken only on the final gcd candidate.
func GCDProfile(a, b *Poly, pr mp.Profile) *Poly {
	g, _ := gcdStop(metrics.Ctx{Profile: pr}, a, b, nil)
	return g
}

// gcdStop is GCDProfile with the arithmetic dispatched by ctx, which
// must carry no counters, polling stop, when non-nil, once per
// remainder step; a non-nil return from stop aborts it with that error.
func gcdStop(ctx metrics.Ctx, a, b *Poly, stop func() error) (*Poly, error) {
	pr := ctx.Profile
	if pr == mp.Fast {
		return gcdSubresultant(ctx, a, b, stop)
	}
	u := a.PrimitivePartProfile(pr)
	v := b.PrimitivePartProfile(pr)
	if u.IsZero() {
		return normSign(v), nil
	}
	if v.IsZero() {
		return normSign(u), nil
	}
	if u.Degree() < v.Degree() {
		u, v = v, u
	}
	for !v.IsZero() {
		if err := poll(stop); err != nil {
			return nil, err
		}
		r := pseudoRem(ctx, u, v).PrimitivePartProfile(pr)
		u, v = v, r
	}
	return normSign(u), nil
}

// gcdSubresultant computes GCD via the subresultant PRS (Collins 1967;
// Knuth TAOCP vol. 2, §4.6.1 Algorithm C): r_{i+1} = prem(r_{i-1}, r_i)
// / (g·h^d) with g = lc(r_{i-1}) and h the running pseudo-leading
// coefficient, both known in advance, keeping every division exact.
func gcdSubresultant(uctx metrics.Ctx, a, b *Poly, stop func() error) (*Poly, error) {
	pr := uctx.Profile
	u := a.PrimitivePartProfile(pr)
	v := b.PrimitivePartProfile(pr)
	if u.IsZero() {
		return normSign(v), nil
	}
	if v.IsZero() {
		return normSign(u), nil
	}
	if u.Degree() < v.Degree() {
		u, v = v, u
	}
	g := mp.NewInt(1)
	h := mp.NewInt(1)
	for !v.IsZero() && v.Degree() >= 1 {
		if err := poll(stop); err != nil {
			return nil, err
		}
		d := u.Degree() - v.Degree()
		r := pseudoRemExact(uctx, u, v)
		u = v
		if r.IsZero() {
			v = Zero()
			break
		}
		den := uctx.Mul(g, intPow(uctx, h, d))
		v = r.DivExactIntCtx(uctx, den)
		g = new(mp.Int).Set(u.Lead())
		// h ← h^(1−d)·g^d: unchanged for d = 0, g for d = 1, and the
		// exact quotient g^d / h^(d−1) otherwise.
		switch {
		case d == 1:
			h = new(mp.Int).Set(g)
		case d > 1:
			h = uctx.DivExact(intPow(uctx, g, d), intPow(uctx, h, d-1))
		}
	}
	if !v.IsZero() {
		// Non-zero constant remainder: the gcd is constant, and the
		// primitive gcd is 1.
		return FromInt64s(1), nil
	}
	return normSign(u.PrimitivePartProfile(pr)), nil
}

// poll returns stop's verdict, or nil when there is no stop function.
func poll(stop func() error) error {
	if stop == nil {
		return nil
	}
	return stop()
}

// pseudoRemExact returns lc(v)^(du−dv+1)·u mod v with the scaling power
// taken in full. PseudoRem scales once per reduction step, which can be
// fewer than du−dv+1 times when cancellation drops the degree by more
// than one; the subresultant divisibility argument needs the exact
// power, so the missing factors are applied afterwards.
func pseudoRemExact(uctx metrics.Ctx, u, v *Poly) *Poly {
	du, dv := u.Degree(), v.Degree()
	lead := v.Lead()
	steps := 0
	r := u.Clone()
	for r.Degree() >= dv && !r.IsZero() {
		dr := r.Degree()
		rl := new(mp.Int).Set(r.Lead())
		r = r.ScaleIntCtx(uctx, lead)
		shift := make([]*mp.Int, dr-dv+1)
		for i := range shift {
			shift[i] = new(mp.Int)
		}
		shift[dr-dv] = rl
		r = r.Sub((&Poly{c: shift}).MulCtx(uctx, v))
		steps++
	}
	for ; steps <= du-dv; steps++ {
		r = r.ScaleIntCtx(uctx, lead)
	}
	return r
}

// intPow returns x^k for k ≥ 0 by square-and-multiply.
func intPow(ctx metrics.Ctx, x *mp.Int, k int) *mp.Int {
	z := mp.NewInt(1)
	if k == 0 {
		return z
	}
	base := new(mp.Int).Set(x)
	for {
		if k&1 != 0 {
			z = ctx.Mul(z, base)
		}
		k >>= 1
		if k == 0 {
			return z
		}
		base = ctx.Sqr(base)
	}
}

func normSign(p *Poly) *Poly {
	if p.Lead().Sign() < 0 {
		return p.Neg()
	}
	return p.Clone()
}

// SquarefreePart returns p / gcd(p, p′): the polynomial with the same
// distinct roots as p, each with multiplicity one, primitive and with a
// positive leading coefficient. Returns 0 for the zero polynomial and a
// constant's primitive part for constants.
func (p *Poly) SquarefreePart() *Poly { return p.SquarefreePartProfile(mp.Schoolbook) }

// SquarefreePartProfile is SquarefreePart with the coefficient
// arithmetic dispatched by pr (unrecorded; see GCDProfile).
func (p *Poly) SquarefreePartProfile(pr mp.Profile) *Poly {
	if p.Degree() < 1 {
		return normSign(p.PrimitivePartProfile(pr))
	}
	g := GCDProfile(p, p.Derivative(), pr)
	if g.Degree() == 0 {
		return normSign(p.PrimitivePartProfile(pr))
	}
	q, r := divModCtx(metrics.Ctx{Profile: pr}, p.PrimitivePartProfile(pr), g)
	if !r.IsZero() {
		// gcd(p, p') divides p exactly; a remainder means corrupted state.
		panic("poly: SquarefreePart: gcd does not divide p")
	}
	return normSign(q.PrimitivePartProfile(pr))
}

// IsSquarefree reports whether p has no repeated roots (gcd(p, p′)
// constant). Constants are squarefree.
func (p *Poly) IsSquarefree() bool { return p.IsSquarefreeProfile(mp.Schoolbook) }

// IsSquarefreeProfile is IsSquarefree with the coefficient arithmetic
// dispatched by pr (unrecorded; see GCDProfile).
func (p *Poly) IsSquarefreeProfile(pr mp.Profile) bool {
	if p.Degree() < 1 {
		return true
	}
	return GCDProfile(p, p.Derivative(), pr).Degree() == 0
}

// DivMod divides u by v in ℚ[x] assuming the quotient and remainder stay
// in ℤ[x] up to the pseudo-division scaling, returning (q, r) with
// u = q·v + r and deg r < deg v, when such integral q exists. If the true
// rational quotient is not integral the returned pair still satisfies the
// degree bound but r is the witness that v ∤ u. v must be non-zero.
func DivMod(u, v *Poly) (q, r *Poly) { return divModCtx(metrics.Ctx{}, u, v) }

// divModCtx is DivMod with the arithmetic dispatched by uctx, which must
// carry no counters.
func divModCtx(uctx metrics.Ctx, u, v *Poly) (q, r *Poly) {
	if v.IsZero() {
		panic("poly: DivMod by zero")
	}
	q = Zero()
	r = u.Clone()
	dv := v.Degree()
	lead := v.Lead()
	for !r.IsZero() && r.Degree() >= dv {
		dr := r.Degree()
		// Candidate term: (lead(r)/lead(v))·x^(dr-dv); bail out if the
		// leading coefficient is not divisible.
		quo, rem := uctx.QuoRem(new(mp.Int), r.Lead(), lead, new(mp.Int))
		if !rem.IsZero() {
			return q, r
		}
		tc := make([]*mp.Int, dr-dv+1)
		for i := range tc {
			tc[i] = new(mp.Int)
		}
		tc[dr-dv] = quo
		term := (&Poly{c: tc}).norm()
		q = q.Add(term)
		r = r.Sub(term.MulCtx(uctx, v))
		if !r.IsZero() && r.Degree() == dr {
			panic("poly: DivMod failed to reduce degree")
		}
	}
	return q, r
}
