package poly

import "realroots/internal/metrics"

// Yun computes the squarefree decomposition of p by Yun's algorithm:
// it returns factors u_1, u_2, …, u_m with
//
//	pp(p) = ± u_1 · u_2² · … · u_m^m   (up to integer content),
//
// where each u_k is primitive and squarefree and collects exactly the
// roots of p with multiplicity k (u_k may be the constant 1). This
// extends the paper's repeated-root handling (§2.3): the distinct roots
// of p are the union of the roots of the u_k, and solving each factor
// separately recovers every multiplicity.
func Yun(p *Poly) []*Poly {
	if p.Degree() < 1 {
		return nil
	}
	p = normSign(p.PrimitivePart())
	factors, _ := YunFromGCD(metrics.Ctx{}, p, GCD(p, p.Derivative()), nil)
	return factors
}

// YunFromGCD is Yun for a caller that already holds g, a non-zero scalar
// multiple of gcd(p, p′) — such as the last non-zero row of p's
// remainder sequence, which ends on that gcd when p has repeated roots
// (§2.3). p must be non-constant, primitive and have a positive leading
// coefficient. The arithmetic is dispatched by ctx's profile and
// parallel hook, and recorded nowhere: ctx's counters are ignored,
// since the decomposition sits outside the paper's cost model. Every
// profile returns the same factors. stop, when non-nil, is polled once
// per gcd remainder step; a non-nil return aborts the decomposition
// with that error.
func YunFromGCD(ctx metrics.Ctx, p, g *Poly, stop func() error) ([]*Poly, error) {
	ctx = metrics.Ctx{Profile: ctx.Profile, Par: ctx.Par}
	g = normSign(g.PrimitivePartProfile(ctx.Profile))
	if g.Degree() == 0 {
		return []*Poly{p.Clone()}, nil
	}
	w := divExact(ctx, p, g, "gcd does not divide p")
	z := divExact(ctx, p.Derivative(), g, "gcd does not divide p'").Sub(w.Derivative())

	var factors []*Poly
	for w.Degree() > 0 {
		u, err := gcdStop(ctx, w, z, stop)
		if err != nil {
			return nil, err
		}
		factors = append(factors, u)
		w = divExact(ctx, w, u, "u does not divide w")
		z = divExact(ctx, z, u, "u does not divide z").Sub(w.Derivative())
	}
	// Trim trailing constant factors.
	for len(factors) > 0 && factors[len(factors)-1].Degree() == 0 {
		factors = factors[:len(factors)-1]
	}
	return factors, nil
}

// divExact returns u/v, which the caller knows to be exact; a remainder
// can only come from a bug, and panics with msg.
func divExact(ctx metrics.Ctx, u, v *Poly, msg string) *Poly {
	q, r := divModCtx(ctx, u, v)
	if !r.IsZero() {
		panic("poly: Yun: " + msg)
	}
	return q
}
