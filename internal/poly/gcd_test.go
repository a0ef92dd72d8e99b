package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/mp"
)

func TestGCDOfProducts(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		// g·a and g·b share at least g.
		g := FromRoots(mp.NewInt(int64(r.Intn(21)-10)), mp.NewInt(int64(r.Intn(21)-10)))
		a := FromRoots(mp.NewInt(int64(r.Intn(21) + 20)))
		b := FromRoots(mp.NewInt(int64(-20 - r.Intn(21))))
		got := GCD(g.Mul(a), g.Mul(b))
		// a and b have no common roots with each other by construction, so
		// gcd = g up to content/sign — and all are monic here.
		if !got.Equal(g) {
			t.Fatalf("GCD(ga, gb) = %s, want %s (a=%s b=%s)", got, g, a, b)
		}
	}
}

func TestGCDCoprime(t *testing.T) {
	a := FromRoots(mp.NewInt(1), mp.NewInt(2))
	b := FromRoots(mp.NewInt(3), mp.NewInt(4))
	if got := GCD(a, b); got.Degree() != 0 {
		t.Fatalf("GCD of coprime polys has degree %d", got.Degree())
	}
}

func TestGCDZeroCases(t *testing.T) {
	p := FromInt64s(1, 2)
	if !GCD(p, Zero()).Equal(p) {
		t.Error("GCD(p, 0) != p")
	}
	if !GCD(Zero(), p).Equal(p) {
		t.Error("GCD(0, p) != p")
	}
	if !GCD(Zero(), Zero()).IsZero() {
		t.Error("GCD(0, 0) != 0")
	}
}

func TestGCDPositiveLead(t *testing.T) {
	a := FromInt64s(-2, -2).Mul(FromInt64s(1, 0, 1)) // (-2x-2)(x²+1)
	b := FromInt64s(-1, -1)                          // -(x+1)
	g := GCD(a, b)
	if g.Lead().Sign() <= 0 {
		t.Fatalf("GCD lead sign %d", g.Lead().Sign())
	}
	if !g.Equal(FromInt64s(1, 1)) {
		t.Fatalf("GCD = %s, want x + 1", g)
	}
}

func TestSquarefreePart(t *testing.T) {
	// (x-1)²(x+2)³(x-5) → (x-1)(x+2)(x-5).
	p := FromRoots(mp.NewInt(1), mp.NewInt(1), mp.NewInt(-2), mp.NewInt(-2), mp.NewInt(-2), mp.NewInt(5))
	sf := p.SquarefreePart()
	want := FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5))
	if !sf.Equal(want) {
		t.Fatalf("squarefree part = %s, want %s", sf, want)
	}
	if !sf.IsSquarefree() {
		t.Error("squarefree part reported non-squarefree")
	}
	if p.IsSquarefree() {
		t.Error("p with repeated roots reported squarefree")
	}
}

func TestSquarefreePartOfSquarefree(t *testing.T) {
	p := FromRoots(mp.NewInt(0), mp.NewInt(7), mp.NewInt(-3))
	if !p.SquarefreePart().Equal(p) {
		t.Errorf("squarefree part changed a squarefree polynomial: %s", p.SquarefreePart())
	}
}

func TestSquarefreeRemovesContent(t *testing.T) {
	p := FromRoots(mp.NewInt(2), mp.NewInt(3)).ScaleInt(mp.NewInt(-6))
	sf := p.SquarefreePart()
	want := FromRoots(mp.NewInt(2), mp.NewInt(3))
	if !sf.Equal(want) {
		t.Fatalf("squarefree part = %s, want %s", sf, want)
	}
}

func TestSquarefreeEdgeCases(t *testing.T) {
	if !Zero().SquarefreePart().IsZero() {
		t.Error("SquarefreePart(0) != 0")
	}
	c := FromInt64s(-6)
	if got := c.SquarefreePart(); got.Degree() != 0 || got.Coeff(0).Int64() != 1 {
		t.Errorf("SquarefreePart(-6) = %s", got)
	}
}

func TestDivMod(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 80; i++ {
		q := randPoly(r, 5, 20)
		v := randPoly(r, 4, 20)
		if v.IsZero() {
			continue
		}
		u := q.Mul(v)
		gotQ, gotR := DivMod(u, v)
		if !gotR.IsZero() {
			t.Fatalf("DivMod(%s·%s) remainder %s", q, v, gotR)
		}
		if !gotQ.Equal(q) {
			t.Fatalf("DivMod quotient %s, want %s", gotQ, q)
		}
	}
}

func TestDivModWithRemainder(t *testing.T) {
	u := FromInt64s(1, 0, 1) // x²+1
	v := FromInt64s(1, 1)    // x+1
	q, r := DivMod(u, v)
	// x²+1 = (x-1)(x+1) + 2.
	if !q.Equal(FromInt64s(-1, 1)) || !r.Equal(FromInt64s(2)) {
		t.Fatalf("DivMod = (%s, %s)", q, r)
	}
}

func TestQuickGCDDividesBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		roots := make([]*mp.Int, 2+r.Intn(3))
		for i := range roots {
			roots[i] = mp.NewInt(int64(r.Intn(11) - 5))
		}
		shared := FromRoots(roots[0])
		a := shared.Mul(FromRoots(roots[1:]...))
		b := shared.Mul(FromInt64s(int64(1+r.Intn(5)), 0, 1)) // times x²+c (no real roots)
		g := GCD(a, b)
		// g divides both.
		if _, rem := DivMod(a.ScaleInt(pow(g.Lead(), a.Degree())), g); !rem.IsZero() {
			// scale to keep the quotient integral
			return false
		}
		_, rem := DivMod(b.ScaleInt(pow(g.Lead(), b.Degree())), g)
		return rem.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func pow(x *mp.Int, k int) *mp.Int {
	z := mp.NewInt(1)
	for i := 0; i < k; i++ {
		z = new(mp.Int).Mul(z, x)
	}
	return z
}

// TestGCDProfileAgreement checks GCD under both profiles against a
// known answer: g·a and g·b, with g a product of linear factors and the
// cofactors a and b of disjoint roots, have the primitive part of g,
// with a positive leading coefficient, as their gcd. g may be 1
// (coprime inputs) and may repeat a root.
func TestGCDProfileAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	// linear returns the product of k primitive factors q·x − p with
	// p ∈ [lo, hi] and q ∈ {1, 2, 3} prime to p, so the product is
	// primitive with a positive leading coefficient.
	linear := func(k int, lo, hi int) *Poly {
		f := FromInt64s(1)
		for i := 0; i < k; i++ {
			p, q := int64(lo+r.Intn(hi-lo+1)), int64(1+r.Intn(3))
			if p%q == 0 {
				q = 1
			}
			f = f.Mul(FromInt64s(-p, q))
		}
		return f
	}
	// scale returns a random content ±1…±5.
	scale := func() *mp.Int { return mp.NewInt(int64((r.Intn(5) + 1) * (2*r.Intn(2) - 1))) }
	for i := 0; i < 40; i++ {
		want := linear(r.Intn(4), -20, 20)                             // roots in [−20, 20]
		a := want.Mul(linear(r.Intn(4)+1, 21, 40)).ScaleInt(scale())   // cofactor roots in [7, 40]
		b := want.Mul(linear(r.Intn(4)+1, -40, -21)).ScaleInt(scale()) // cofactor roots in [−40, −7]
		for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
			if got := GCDProfile(a, b, pr); !got.Equal(want) {
				t.Fatalf("profile %v: GCD(%s, %s) = %s, want %s", pr, a, b, got, want)
			}
		}
		if got := GCD(b, a); !got.Equal(want) {
			t.Fatalf("GCD(%s, %s) = %s, want %s", b, a, got, want)
		}
	}
	// Zero and constant cases.
	p := FromInt64s(2, 4)
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		if g := GCDProfile(p, Zero(), pr); !g.Equal(FromInt64s(1, 2)) {
			t.Errorf("profile %v: GCD(p, 0) = %s, want 2*x + 1", pr, g)
		}
		if !GCDProfile(Zero(), Zero(), pr).IsZero() {
			t.Errorf("profile %v: GCD(0, 0) != 0", pr)
		}
		if g := GCDProfile(FromInt64s(6), FromInt64s(4), pr); g.Degree() != 0 {
			t.Errorf("profile %v: GCD of constants has degree %d", pr, g.Degree())
		}
	}
}

// TestSquarefreeProfileAgreement checks the squarefree predicates under
// both profiles against known squarefree parts, the products of the
// distinct linear factors, including a high-multiplicity input and
// sparse ones whose pseudo-divisions skip degrees (d > 1 steps).
func TestSquarefreeProfileAgreement(t *testing.T) {
	roots := func(rs ...int64) *Poly {
		f := FromInt64s(1)
		for _, v := range rs {
			f = f.Mul(FromInt64s(-v, 1))
		}
		return f
	}
	cases := []struct{ p, want *Poly }{
		{roots(1, 2, 3), roots(1, 2, 3)},
		{roots(5, 5), roots(5)},
		{roots(-1, -1, -1, 4), roots(-1, 4)},
		{FromInt64s(0, 0, 0, 1), roots(0)}, // x³: triple root at 0
		{FromInt64s(7), FromInt64s(1)},
		{FromInt64s(-3, 0, 0, 0, 0, 3), FromInt64s(-1, 0, 0, 0, 0, 1)}, // sparse, d > 1 pseudo-division steps
		{roots(2, 2, -2, -2, 1, -1).ScaleInt(mp.NewInt(-3)), roots(2, -2, 1, -1)},
		{roots(0, 1, 1, -1, -1, 3, 3, 3, -3, -3, -3), roots(0, 1, -1, 3, -3)},
	}
	for _, c := range cases {
		squarefree := c.want.Degree() == c.p.Degree()
		for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
			if got := c.p.IsSquarefreeProfile(pr); got != squarefree {
				t.Errorf("profile %v: IsSquarefree(%s) = %v, want %v", pr, c.p, got, squarefree)
			}
			if got := c.p.SquarefreePartProfile(pr); !got.Equal(c.want) {
				t.Errorf("profile %v: SquarefreePart(%s) = %s, want %s", pr, c.p, got, c.want)
			}
		}
	}
}
