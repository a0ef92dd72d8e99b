// Package sturm implements a classic sequential real-root finder:
// Sturm-sequence isolation followed by bisection refinement, entirely
// over exact integer arithmetic (internal/mp).
//
// It stands in for the PARI root-finding routine the paper compares
// against in Figure 8. PARI-GP's 1991 solver is a general sequential
// isolate-and-refine method whose running time is dominated by the
// isolation machinery and largely insensitive to the output precision
// µ; this baseline has exactly those characteristics (Sturm-chain
// construction plus O(d) chain evaluations per isolation step, then a
// µ-bit bisection per root), so the degree-versus-time comparison in
// Figure 8 exercises the same trade-off. The substitution is recorded
// in DESIGN.md.
package sturm

import (
	"fmt"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// A Chain is a Sturm chain S_0 = p, S_1 = p′, S_{i+1} = -(S_{i-1} mod S_i),
// computed with sign-corrected pseudo-remainders and primitive-part
// reduction to control coefficient growth.
type Chain struct {
	S []*poly.Poly
}

// NewChain builds the Sturm chain of a squarefree polynomial p
// (degree ≥ 1). It returns an error if p is not squarefree (the chain
// then terminates in a non-constant GCD).
func NewChain(p *poly.Poly) (*Chain, error) {
	if p.Degree() < 1 {
		return nil, fmt.Errorf("sturm: degree %d polynomial", p.Degree())
	}
	s := []*poly.Poly{p.Clone(), p.Derivative()}
	for {
		u, v := s[len(s)-2], s[len(s)-1]
		if v.IsZero() {
			return nil, fmt.Errorf("sturm: polynomial is not squarefree")
		}
		if v.Degree() == 0 {
			break
		}
		r := poly.PseudoRem(u, v)
		if r.IsZero() {
			return nil, fmt.Errorf("sturm: polynomial is not squarefree")
		}
		// PseudoRem scales u by lc(v)^k in full, k = deg u − deg v + 1;
		// when that factor is negative the remainder's sign is flipped,
		// and the Sturm recurrence needs the negated true remainder.
		k := u.Degree() - v.Degree() + 1
		if v.Lead().Sign() < 0 && k%2 == 1 {
			// prem = (negative)·rem, so -rem is a positive multiple of prem.
			r = r.PrimitivePart()
		} else {
			r = r.Neg().PrimitivePart()
		}
		s = append(s, r)
	}
	return &Chain{S: s}, nil
}

// Variations returns the number of sign variations of the chain at the
// dyadic point x, skipping zeros.
func (c *Chain) Variations(ctx metrics.Ctx, x dyadic.Dyadic) int {
	return c.variations(func(s *poly.Poly) int { return s.SignAtCtx(ctx, x.Num(), x.Scale()) })
}

// VariationsAtNegInf returns the chain's sign variations as x → -∞.
func (c *Chain) VariationsAtNegInf() int { return c.variations((*poly.Poly).SignAtNegInf) }

// VariationsAtPosInf returns the chain's sign variations as x → +∞.
func (c *Chain) VariationsAtPosInf() int { return c.variations((*poly.Poly).SignAtPosInf) }

// variations counts the sign variations of sign(S_0), sign(S_1), …,
// skipping zeros.
func (c *Chain) variations(sign func(*poly.Poly) int) int {
	v, prev := 0, 0
	for _, si := range c.S {
		sg := sign(si)
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

// Count returns the number of roots of p in the half-open interval
// (a, b], by Sturm's theorem.
func (c *Chain) Count(ctx metrics.Ctx, a, b dyadic.Dyadic) int {
	return c.Variations(ctx, a) - c.Variations(ctx, b)
}

// CountAll returns the total number of distinct real roots.
func (c *Chain) CountAll() int {
	return c.VariationsAtNegInf() - c.VariationsAtPosInf()
}

// FindRoots computes the µ-approximations 2^-µ·⌈2^µ·x⌉ of all distinct
// real roots of p, sequentially: Sturm isolation by interval halving,
// then bisection refinement of each isolated root. Repeated roots are
// handled by squarefree reduction. Arithmetic is recorded in ctx (the
// caller typically uses a dedicated Counters).
func FindRoots(p *poly.Poly, mu uint, ctx metrics.Ctx) ([]dyadic.Dyadic, error) {
	return FindRootsStop(p, mu, ctx, nil)
}

// FindRootsStop is FindRoots with a cooperative stop hook: stop, if
// non-nil, is polled once per isolation split and once per root
// refinement, and a non-nil return aborts the computation with that
// error (the resilience layer's cancellation and budget checks).
func FindRootsStop(p *poly.Poly, mu uint, ctx metrics.Ctx, stop func() error) ([]dyadic.Dyadic, error) {
	if p.Degree() < 1 {
		return nil, fmt.Errorf("sturm: degree %d polynomial has no roots", p.Degree())
	}
	// One gcd(p, p′): a squarefree p keeps its own coefficients.
	ps := p
	if sf := p.SquarefreePartProfile(ctx.Profile); sf.Degree() < p.Degree() {
		ps = sf
	}
	if ps.Degree() < 1 {
		return nil, fmt.Errorf("sturm: no roots after squarefree reduction")
	}
	ctx = ctx.In(metrics.PhaseOther)
	chain, err := NewChain(ps)
	if err != nil {
		return nil, err
	}
	dp := ps.Derivative()

	bound := ps.RootBound()
	lo := dyadic.FromInt(new(mp.Int).Neg(bound))
	hi := dyadic.FromInt(bound)
	total := chain.Count(ctx, lo, hi)

	// Isolation: split (lo, hi] until every piece holds exactly one root.
	type piece struct {
		lo, hi dyadic.Dyadic
		count  int
	}
	stack := []piece{{lo, hi, total}}
	var isolated []piece
	for len(stack) > 0 {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case pc.count == 0:
		case pc.count == 1:
			isolated = append(isolated, pc)
		default:
			mid := pc.lo.Mid(pc.hi)
			left := chain.Count(ctx, pc.lo, mid)
			stack = append(stack,
				piece{pc.lo, mid, left},
				piece{mid, pc.hi, pc.count - left})
		}
	}
	// Sort pieces ascending (stack order interleaves them).
	for i := 1; i < len(isolated); i++ {
		for j := i; j > 0 && isolated[j].lo.Cmp(isolated[j-1].lo) < 0; j-- {
			isolated[j], isolated[j-1] = isolated[j-1], isolated[j]
		}
	}

	roots := make([]dyadic.Dyadic, len(isolated))
	for i, pc := range isolated {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		roots[i] = refine(ps, dp, pc.lo, pc.hi, mu, ctx)
	}
	return roots, nil
}

// refine bisects the isolating interval (lo, hi] (containing exactly one
// root) down to the 2^-µ grid and returns the ceiling approximation.
func refine(p, dp *poly.Poly, lo, hi dyadic.Dyadic, mu uint, ctx metrics.Ctx) dyadic.Dyadic {
	// Root exactly at hi?
	sh := p.SignAtCtx(ctx, hi.Num(), hi.Scale())
	if sh == 0 {
		return hi.CeilGrid(mu)
	}
	// Sign just right of lo (lo itself may be the previous root).
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
	// Exact grid decision, as in the parallel algorithm's finish step.
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
