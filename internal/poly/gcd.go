package poly

import (
	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// GCD returns the greatest common divisor of a and b in ℤ[x], computed
// with Collins' subresultant pseudo-remainder sequence. The result is
// primitive with a positive leading coefficient (up to integer content,
// which is irrelevant for root sets); GCD(0, 0) == 0. It is used by
// Yun's squarefree decomposition and by the Sturm and Descartes
// baselines.
func GCD(a, b *Poly) *Poly { return GCDProfile(a, b, mp.Schoolbook) }

// GCDProfile is GCD with the coefficient arithmetic dispatched by pr.
// The work is not recorded in any metrics counters: squarefree
// decomposition sits outside the paper's cost model, so both profiles
// produce identical traces and differ only in wall time.
func GCDProfile(a, b *Poly, pr mp.Profile) *Poly {
	g, _ := gcdStop(metrics.Ctx{Profile: pr}, a, b, nil)
	return g
}

// gcdStop is GCDProfile with the arithmetic dispatched by ctx, which
// must carry no counters, polling stop, when non-nil, once per
// remainder step; a non-nil return from stop aborts it with that error.
//
// It runs the subresultant PRS (Collins 1967; Knuth TAOCP vol. 2,
// §4.6.1 Algorithm C): r_{i+1} = prem(r_{i-1}, r_i) / (g·h^d) with
// g = lc(r_{i-1}) and h the running pseudo-leading coefficient, both
// known in advance, so every division is exact with a known divisor and
// no step takes a content GCD (quadratic in the multi-thousand-bit PRS
// coefficients); a content is taken only on the final gcd candidate.
func gcdStop(ctx metrics.Ctx, a, b *Poly, stop func() error) (*Poly, error) {
	pr := ctx.Profile
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
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		d := u.Degree() - v.Degree()
		r := pseudoRem(ctx, u, v)
		u = v
		if r.IsZero() {
			v = Zero()
			break
		}
		den := ctx.Mul(g, intPow(ctx, h, d))
		v = r.DivExactIntCtx(ctx, den)
		g = new(mp.Int).Set(u.Lead())
		// h ← h^(1−d)·g^d: unchanged for d = 0, g for d = 1, and the
		// exact quotient g^d / h^(d−1) otherwise.
		switch {
		case d == 1:
			h = new(mp.Int).Set(g)
		case d > 1:
			h = ctx.DivExact(intPow(ctx, g, d), intPow(ctx, h, d-1))
		}
	}
	if !v.IsZero() {
		// Non-zero constant remainder: the gcd is constant, and the
		// primitive gcd is 1.
		return FromInt64s(1), nil
	}
	return normSign(u.PrimitivePartProfile(pr)), nil
}

// PseudoRem returns the pseudo-remainder of u by v (v ≠ 0):
// prem = lc(v)^(deg u − deg v + 1)·u mod v, which has integer
// coefficients, or u itself when deg u < deg v. The power is taken in
// full even when a reduction step cancels more than the leading term
// (every step on an even or odd polynomial), since the Sturm
// baseline's sign rule and the subresultant PRS's exact divisions both
// rest on it.
func PseudoRem(u, v *Poly) *Poly { return pseudoRem(metrics.Ctx{}, u, v) }

// pseudoRem is PseudoRem with the arithmetic dispatched by uctx, which
// must carry no counters. It reduces once per degree the remainder
// still has at or above deg v, then applies the scaling factors that
// cancelled degrees skipped.
func pseudoRem(uctx metrics.Ctx, u, v *Poly) *Poly {
	if v.IsZero() {
		panic("poly: PseudoRem by zero")
	}
	du, dv := u.Degree(), v.Degree()
	lead := v.Lead()
	steps := 0
	r := u.Clone()
	for r.Degree() >= dv && !r.IsZero() {
		// r ← lc(v)·r − lc(r)·x^(deg r − dv)·v
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
