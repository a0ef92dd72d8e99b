// Package poly implements dense univariate polynomials with
// arbitrary-precision integer coefficients over internal/mp, together
// with the scaled (fixed-point) evaluation scheme the paper uses to stay
// within integer arithmetic (§3.3, §4.3).
package poly

import (
	"fmt"
	"strings"

	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// A Poly is a polynomial Σ c[i]·x^i. The canonical form has a non-zero
// leading coefficient; the zero polynomial has an empty coefficient
// slice. Coefficients are never shared between distinct Polys unless the
// Poly is treated as immutable, which is the convention throughout this
// repository: algorithm code builds new Polys rather than mutating them.
type Poly struct {
	c []*mp.Int
}

// Zero returns the zero polynomial.
func Zero() *Poly { return &Poly{} }

// New builds a polynomial from coefficients in ascending-degree order
// (c[0] is the constant term). The slice is copied; trailing zero
// coefficients are trimmed.
func New(coeffs ...*mp.Int) *Poly {
	c := make([]*mp.Int, len(coeffs))
	for i, v := range coeffs {
		c[i] = new(mp.Int).Set(v)
	}
	return (&Poly{c: c}).norm()
}

// FromInt64s builds a polynomial from int64 coefficients in
// ascending-degree order.
func FromInt64s(coeffs ...int64) *Poly {
	c := make([]*mp.Int, len(coeffs))
	for i, v := range coeffs {
		c[i] = mp.NewInt(v)
	}
	return (&Poly{c: c}).norm()
}

// Constant returns the degree-0 polynomial v (or the zero polynomial).
func Constant(v *mp.Int) *Poly { return New(v) }

// X returns the monic linear polynomial x.
func X() *Poly { return FromInt64s(0, 1) }

func (p *Poly) norm() *Poly {
	n := len(p.c)
	for n > 0 && p.c[n-1].IsZero() {
		n--
	}
	p.c = p.c[:n]
	return p
}

// Degree returns the degree of p, with Degree(0) == -1.
func (p *Poly) Degree() int { return len(p.c) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p *Poly) IsZero() bool { return len(p.c) == 0 }

// Coeff returns the coefficient of x^i (zero for i out of range). The
// returned value must not be mutated.
func (p *Poly) Coeff(i int) *mp.Int {
	if i < 0 || i >= len(p.c) {
		return new(mp.Int)
	}
	return p.c[i]
}

// Lead returns the leading coefficient of p (zero for the zero
// polynomial). The returned value must not be mutated.
func (p *Poly) Lead() *mp.Int { return p.Coeff(p.Degree()) }

// Clone returns a deep copy of p.
func (p *Poly) Clone() *Poly {
	return New(p.c...)
}

// Equal reports whether p and q are identical polynomials.
func (p *Poly) Equal(q *Poly) bool {
	if len(p.c) != len(q.c) {
		return false
	}
	for i := range p.c {
		if p.c[i].Cmp(q.c[i]) != 0 {
			return false
		}
	}
	return true
}

// MaxCoeffBits returns the bit length of the largest |coefficient| of p —
// the quantity the paper writes as ||p||.
func (p *Poly) MaxCoeffBits() int {
	max := 0
	for _, ci := range p.c {
		if b := ci.BitLen(); b > max {
			max = b
		}
	}
	return max
}

// Neg returns -p.
func (p *Poly) Neg() *Poly {
	c := make([]*mp.Int, len(p.c))
	for i, ci := range p.c {
		c[i] = new(mp.Int).Neg(ci)
	}
	return &Poly{c: c}
}

// Add returns p+q.
func (p *Poly) Add(q *Poly) *Poly { return p.AddCtx(metrics.Ctx{}, q) }

// AddCtx returns p+q, recording the coefficient additions in ctx.
func (p *Poly) AddCtx(ctx metrics.Ctx, q *Poly) *Poly {
	n := len(p.c)
	if len(q.c) > n {
		n = len(q.c)
	}
	c := make([]*mp.Int, n)
	for i := range c {
		c[i] = ctx.Add(p.Coeff(i), q.Coeff(i))
	}
	return (&Poly{c: c}).norm()
}

// Sub returns p-q.
func (p *Poly) Sub(q *Poly) *Poly { return p.SubCtx(metrics.Ctx{}, q) }

// SubCtx returns p-q, recording the coefficient subtractions in ctx.
func (p *Poly) SubCtx(ctx metrics.Ctx, q *Poly) *Poly {
	n := len(p.c)
	if len(q.c) > n {
		n = len(q.c)
	}
	c := make([]*mp.Int, n)
	for i := range c {
		c[i] = ctx.Sub(p.Coeff(i), q.Coeff(i))
	}
	return (&Poly{c: c}).norm()
}

// Mul returns p*q.
func (p *Poly) Mul(q *Poly) *Poly { return p.MulCtx(metrics.Ctx{}, q) }

// MulCtx returns p*q using the schoolbook coefficient convolution,
// recording each coefficient multiplication in ctx. This is the operation
// whose count dominates the tree-polynomial phase (paper §4.2: the cost
// of a polynomial matrix product is bounded via md(A)·md(B)). Each
// output coefficient is one ctx.DotDiv over its products; the
// convolution's additions are not recorded.
func (p *Poly) MulCtx(ctx metrics.Ctx, q *Poly) *Poly { return mulAdd(ctx, 0, p, q, nil, nil) }

// MulAddCtx returns a·b + c·d, recording the coefficient multiplications
// of both products and the additions that adding them as polynomials
// (AddCtx) records: one per coefficient of the longer product. Each
// output coefficient is one ctx.DotDiv over the products of both
// convolutions.
func MulAddCtx(ctx metrics.Ctx, a, b, c, d *Poly) *Poly { return mulAdd(ctx, 1, a, b, c, d) }

// mulAdd returns a·b + c·d, where c and d may be nil, recording adds
// additions per output coefficient; see MulCtx and MulAddCtx.
func mulAdd(ctx metrics.Ctx, adds int, a, b, c, d *Poly) *Poly {
	n := max(prodLen(a, b), prodLen(c, d))
	if n == 0 {
		return Zero()
	}
	out := make([]*mp.Int, n)
	terms := make([]mp.Term, 0, convTerms(a, b)+convTerms(c, d))
	for k := range out {
		terms = appendConv(appendConv(terms[:0], a, b, k), c, d, k)
		out[k] = ctx.DotDiv(nil, adds, terms...)
	}
	return (&Poly{c: out}).norm()
}

// prodLen returns the coefficient count of p·q; nil counts as zero.
func prodLen(p, q *Poly) int {
	if p == nil || q == nil || p.IsZero() || q.IsZero() {
		return 0
	}
	return len(p.c) + len(q.c) - 1
}

// convTerms bounds the number of products in one coefficient of p·q.
func convTerms(p, q *Poly) int {
	if prodLen(p, q) == 0 {
		return 0
	}
	return min(len(p.c), len(q.c))
}

// appendConv appends to terms the products p_i·q_{k-i} of coefficient
// k of p·q, skipping zero factors.
func appendConv(terms []mp.Term, p, q *Poly, k int) []mp.Term {
	if prodLen(p, q) == 0 {
		return terms
	}
	for i := max(0, k-len(q.c)+1); i <= min(k, len(p.c)-1); i++ {
		if pi, qj := p.c[i], q.c[k-i]; !pi.IsZero() && !qj.IsZero() {
			terms = append(terms, mp.Term{X: pi, Y: qj})
		}
	}
	return terms
}

// ScaleInt returns p·v.
func (p *Poly) ScaleInt(v *mp.Int) *Poly { return p.ScaleIntCtx(metrics.Ctx{}, v) }

// ScaleIntCtx returns p·v, recording the multiplications in ctx.
func (p *Poly) ScaleIntCtx(ctx metrics.Ctx, v *mp.Int) *Poly {
	if v.IsZero() || p.IsZero() {
		return Zero()
	}
	c := make([]*mp.Int, len(p.c))
	for i, ci := range p.c {
		c[i] = ctx.Mul(ci, v)
	}
	return (&Poly{c: c}).norm()
}

// DivExactInt returns p/v where v exactly divides every coefficient; it
// panics otherwise (see mp.Int.DivExact).
func (p *Poly) DivExactInt(v *mp.Int) *Poly { return p.DivExactIntCtx(metrics.Ctx{}, v) }

// DivExactIntCtx returns p/v, recording the divisions in ctx. Each
// coefficient is one exact division in a ctx.DotDiv workspace.
func (p *Poly) DivExactIntCtx(ctx metrics.Ctx, v *mp.Int) *Poly {
	c := make([]*mp.Int, len(p.c))
	for i, ci := range p.c {
		c[i] = ctx.DivExact(ci, v)
	}
	return (&Poly{c: c}).norm()
}

// Derivative returns p'.
func (p *Poly) Derivative() *Poly {
	if p.Degree() < 1 {
		return Zero()
	}
	c := make([]*mp.Int, len(p.c)-1)
	for i := 1; i < len(p.c); i++ {
		c[i-1] = new(mp.Int).MulInt64(p.c[i], int64(i))
	}
	return (&Poly{c: c}).norm()
}

// MulLinear returns p·(x - r), used to build polynomials from roots.
func (p *Poly) MulLinear(r *mp.Int) *Poly {
	return p.Mul(New(new(mp.Int).Neg(r), mp.NewInt(1)))
}

// FromRoots returns the monic polynomial ∏ (x - r_i).
func FromRoots(roots ...*mp.Int) *Poly {
	p := FromInt64s(1)
	for _, r := range roots {
		p = p.MulLinear(r)
	}
	return p
}

// Content returns the GCD of the coefficients of p (non-negative;
// Content(0) == 0).
func (p *Poly) Content() *mp.Int { return p.ContentProfile(mp.Schoolbook) }

// ContentProfile is Content with the integer GCDs dispatched by pr
// (unrecorded; see GCDProfile).
func (p *Poly) ContentProfile(pr mp.Profile) *mp.Int {
	g := new(mp.Int)
	for _, ci := range p.c {
		g.GCDProfile(pr, g, ci)
		if g.IsOne() {
			break
		}
	}
	return g
}

// PrimitivePart returns p divided by its content, preserving the sign of
// the leading coefficient; PrimitivePart(0) == 0.
func (p *Poly) PrimitivePart() *Poly { return p.PrimitivePartProfile(mp.Schoolbook) }

// PrimitivePartProfile is PrimitivePart with the coefficient arithmetic
// dispatched by pr (unrecorded; see GCDProfile).
func (p *Poly) PrimitivePartProfile(pr mp.Profile) *Poly {
	if p.IsZero() {
		return Zero()
	}
	g := p.ContentProfile(pr)
	if g.IsOne() {
		return p.Clone()
	}
	return p.DivExactIntCtx(metrics.Ctx{Profile: pr}, g)
}

// String renders p in conventional descending order, e.g.
// "3*x^2 - x + 7".
func (p *Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	first := true
	for i := p.Degree(); i >= 0; i-- {
		ci := p.c[i]
		if ci.IsZero() {
			continue
		}
		abs := new(mp.Int).Abs(ci)
		switch {
		case first && ci.Sign() < 0:
			b.WriteString("-")
		case !first && ci.Sign() < 0:
			b.WriteString(" - ")
		case !first:
			b.WriteString(" + ")
		}
		first = false
		switch {
		case i == 0:
			b.WriteString(abs.String())
		case abs.IsOne():
			// omit the coefficient 1
		default:
			b.WriteString(abs.String())
			b.WriteString("*")
		}
		switch {
		case i == 1:
			b.WriteString("x")
		case i > 1:
			fmt.Fprintf(&b, "x^%d", i)
		}
	}
	return b.String()
}
