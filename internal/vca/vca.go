// Package vca implements real-root isolation by the
// Vincent–Collins–Akritas (Descartes-rule) bisection method, entirely
// over exact integer arithmetic — the classic *sequential* alternative
// to Sturm-based isolation and the ancestor of the isolators in modern
// systems (the calibration notes for this reproduction name MPSolve,
// FLINT, and Sturm methods as the widely available comparators). It
// serves as a second baseline next to internal/sturm: same contract
// (isolate, then bisect to the 2^-µ grid), different isolation
// machinery (Descartes' rule of signs on Möbius-transformed
// polynomials instead of Sturm-chain sign variations).
package vca

import (
	"fmt"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// signVariations counts the sign variations in p's coefficients —
// Descartes' bound on the number of positive real roots.
func signVariations(p *poly.Poly) int {
	v, prev := 0, 0
	for i := 0; i <= p.Degree(); i++ {
		sg := p.Coeff(i).Sign()
		if sg == 0 {
			continue
		}
		if prev != 0 && sg != prev {
			v++
		}
		prev = sg
	}
	return v
}

// taylorShift1 returns p(x+1), by the O(d²) Pascal accumulation.
func taylorShift1(p *poly.Poly) *poly.Poly {
	d := p.Degree()
	if d < 0 {
		return poly.Zero()
	}
	c := make([]*mp.Int, d+1)
	for i := range c {
		c[i] = new(mp.Int).Set(p.Coeff(i))
	}
	// Horner-style: repeatedly add the higher coefficient downward.
	for i := 0; i < d; i++ {
		for j := d - 1; j >= i; j-- {
			c[j].Add(c[j], c[j+1])
		}
	}
	return poly.New(c...)
}

// scaleHalf returns 2^d·p(x/2): coefficient i is multiplied by 2^(d-i).
func scaleHalf(p *poly.Poly) *poly.Poly {
	d := p.Degree()
	c := make([]*mp.Int, d+1)
	for i := 0; i <= d; i++ {
		c[i] = new(mp.Int).Lsh(p.Coeff(i), uint(d-i))
	}
	return poly.New(c...)
}

// reverse returns x^d·p(1/x) (coefficients reversed).
func reverse(p *poly.Poly) *poly.Poly {
	d := p.Degree()
	c := make([]*mp.Int, d+1)
	for i := 0; i <= d; i++ {
		c[i] = new(mp.Int).Set(p.Coeff(d - i))
	}
	return poly.New(c...)
}

// descartesBound01 bounds the number of roots of p in the open interval
// (0, 1) by the sign variations of (1+x)^d · p(1/(1+x)).
func descartesBound01(p *poly.Poly) int {
	return signVariations(taylorShift1(reverse(p)))
}

// An Interval is a half-open isolating interval (Lo, Hi] holding
// exactly one real root.
type Interval struct {
	Lo, Hi dyadic.Dyadic
}

// IsolatePositive01 returns isolating intervals, as fractions of (0, 1),
// for the roots of p in the open unit interval. p must be squarefree.
// Roots exactly at dyadic bisection points are returned as width-zero
// intervals [r, r].
func isolate01(p *poly.Poly, lo, hi dyadic.Dyadic, out *[]Interval) {
	switch descartesBound01(p) {
	case 0:
		return
	case 1:
		*out = append(*out, Interval{lo, hi})
		return
	}
	// Split at 1/2: left half via 2^d·p(x/2), right via shift then scale.
	mid := lo.Mid(hi)
	left := scaleHalf(p)
	right := taylorShift1(left)
	exactMid := right.Coeff(0).IsZero()
	if exactMid {
		// The midpoint is exactly a root: deflate the right copy. (The
		// left copy sees the same root at its boundary x = 1, which the
		// open-interval Descartes bound never counts, so it needs no
		// deflation.)
		rc := make([]*mp.Int, right.Degree())
		for i := 1; i <= right.Degree(); i++ {
			rc[i-1] = new(mp.Int).Set(right.Coeff(i))
		}
		right = poly.New(rc...)
	}
	isolate01(left, lo, mid, out)
	if exactMid {
		// Emitted between the halves so the output stays sorted.
		*out = append(*out, Interval{mid, mid})
	}
	isolate01(right, mid, hi, out)
}

// IsolatePositive returns isolating intervals for all positive real
// roots of the squarefree polynomial p, inside (0, 2^k) where 2^k is
// the power-of-two root bound.
func IsolatePositive(p *poly.Poly) []Interval {
	bound := p.RootBound()
	k := uint(bound.BitLen() - 1)
	// q(x) = p(2^k·x) maps (0,1) onto (0, 2^k).
	d := p.Degree()
	c := make([]*mp.Int, d+1)
	for i := 0; i <= d; i++ {
		c[i] = new(mp.Int).Lsh(p.Coeff(i), uint(i)*k)
	}
	q := poly.New(c...)
	var unit []Interval
	isolate01(q, dyadic.FromInt64(0), dyadic.FromInt64(1), &unit)
	out := make([]Interval, len(unit))
	for i, iv := range unit {
		out[i] = Interval{iv.Lo.MulPow2(int(k)), iv.Hi.MulPow2(int(k))}
	}
	return out
}

// FindRoots computes the µ-approximations 2^-µ·⌈2^µ·x⌉ of all distinct
// real roots of p, sequentially: squarefree reduction, VCA isolation of
// the positive and negative halves (plus an exact test at zero), then
// bisection refinement of each isolated root. Arithmetic is recorded in
// ctx under PhaseOther.
func FindRoots(p *poly.Poly, mu uint, ctx metrics.Ctx) ([]dyadic.Dyadic, error) {
	if p.Degree() < 1 {
		return nil, fmt.Errorf("vca: degree %d polynomial has no roots", p.Degree())
	}
	// One gcd(p, p′): a squarefree p keeps its own coefficients.
	ps := p
	if sf := p.SquarefreePartProfile(ctx.Profile); sf.Degree() < p.Degree() {
		ps = sf
	}
	ctx = ctx.In(metrics.PhaseOther)
	dp := ps.Derivative()

	var roots []dyadic.Dyadic

	// Negative roots: isolate the positive roots of p(-x) and mirror.
	neg := negate(ps)
	for _, iv := range IsolatePositive(neg) {
		r := refine(neg, neg.Derivative(), iv, mu, ctx)
		// x is a root of p(-x) at r ⇔ -r is a root of p; the ceiling
		// approximation of -root is -floor approximation of root, so
		// recompute on the mirrored bracket rather than negating the
		// grid value: ỹ(-x) = -(2^-µ·⌊2^µ·x⌋).
		roots = append(roots, mirror(neg, iv, r, mu, ctx))
	}
	reverseSlice(roots)

	// A root exactly at zero.
	if ps.Coeff(0).IsZero() {
		roots = append(roots, dyadic.FromInt64(0))
	}

	// Positive roots.
	for _, iv := range IsolatePositive(ps) {
		roots = append(roots, refine(ps, dp, iv, mu, ctx))
	}
	return roots, nil
}

func negate(p *poly.Poly) *poly.Poly {
	d := p.Degree()
	c := make([]*mp.Int, d+1)
	for i := 0; i <= d; i++ {
		c[i] = new(mp.Int).Set(p.Coeff(i))
		if i%2 == 1 {
			c[i].Neg(c[i])
		}
	}
	return poly.New(c...)
}

func reverseSlice(s []dyadic.Dyadic) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// mirror computes the µ-approximation of -root given the isolating
// interval of root in the mirrored polynomial: x̃(-r) = -(⌊2^µ·r⌋·2^-µ),
// determined exactly with one extra sign test when r lies on the grid.
func mirror(pneg *poly.Poly, iv Interval, approx dyadic.Dyadic, mu uint, ctx metrics.Ctx) dyadic.Dyadic {
	// approx = ⌈2^µ r⌉/2^µ. If r is exactly on the grid (pneg(approx)=0
	// with approx in r's isolating interval), then -r's ceiling is
	// -approx. A zero of pneg at approx outside the interval is the next
	// root, one grid step or less above r.
	inside := approx.Equal(iv.Lo) && iv.Lo.Equal(iv.Hi) || iv.Lo.Cmp(approx) < 0 && approx.Cmp(iv.Hi) < 0
	if inside && pneg.SignAtCtx(ctx, approx.Num(), approx.Scale()) == 0 {
		return approx.Neg()
	}
	// Otherwise ⌊2^µ r⌋ = ⌈2^µ r⌉ - 1 and x̃(-r) = -(approx - 2^-µ).
	return approx.Sub(dyadic.GridStep(mu)).Neg()
}

// refine bisects the isolating interval down to the 2^-µ grid. The
// interval is open: its single root lies strictly inside, and the
// endpoints may be roots belonging to *neighbouring* cells (deflated
// bisection points), so endpoint signs are taken one-sidedly via the
// derivative and a vanishing p(hi) is never mistaken for this cell's
// root.
func refine(p, dp *poly.Poly, iv Interval, mu uint, ctx metrics.Ctx) dyadic.Dyadic {
	lo, hi := iv.Lo, iv.Hi
	if lo.Equal(hi) {
		return lo.CeilGrid(mu) // exact root found during isolation
	}
	sl := p.SignAtCtx(ctx, lo.Num(), lo.Scale())
	if sl == 0 {
		sl = dp.SignAtCtx(ctx, lo.Num(), lo.Scale())
	}
	step := dyadic.GridStep(mu)
	for hi.Sub(lo).Cmp(step) > 0 {
		mid := lo.Mid(hi)
		sm := p.SignAtCtx(ctx, mid.Num(), mid.Scale())
		if sm == 0 {
			return mid.CeilGrid(mu)
		}
		if sm == sl {
			lo = mid
		} else {
			hi = mid
		}
	}
	g := lo.CeilGrid(mu)
	if g.Equal(lo) {
		g = g.Add(step)
	}
	if g.Cmp(hi) >= 0 {
		return g
	}
	sg := p.SignAtCtx(ctx, g.Num(), g.Scale())
	if sg == 0 || sg != sl {
		return g
	}
	return g.Add(step)
}
