package poly

import (
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/metrics"
	"realroots/internal/mp"
)

func randPoly(r *rand.Rand, maxDeg, coeffBits int) *Poly {
	d := r.Intn(maxDeg + 1)
	c := make([]*mp.Int, d+1)
	for i := range c {
		c[i] = mp.RandInt(r, 1+r.Intn(coeffBits))
	}
	return New(c...)
}

func TestNewTrimsLeadingZeros(t *testing.T) {
	p := FromInt64s(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", p.Degree())
	}
	z := FromInt64s(0, 0)
	if !z.IsZero() || z.Degree() != -1 {
		t.Fatalf("zero poly not canonical: deg %d", z.Degree())
	}
}

func TestCoeffOutOfRange(t *testing.T) {
	p := FromInt64s(1, 2)
	if p.Coeff(-1).Sign() != 0 || p.Coeff(5).Sign() != 0 {
		t.Error("out-of-range Coeff not zero")
	}
}

func TestAddSubMulBasics(t *testing.T) {
	p := FromInt64s(1, 2, 3)  // 3x²+2x+1
	q := FromInt64s(-1, 0, 4) // 4x²-1
	sum := p.Add(q)
	if !sum.Equal(FromInt64s(0, 2, 7)) {
		t.Errorf("sum = %s", sum)
	}
	diff := p.Sub(q)
	if !diff.Equal(FromInt64s(2, 2, -1)) {
		t.Errorf("diff = %s", diff)
	}
	prod := p.Mul(q)
	// (3x²+2x+1)(4x²-1) = 12x⁴+8x³+x²-2x-1
	if !prod.Equal(FromInt64s(-1, -2, 1, 8, 12)) {
		t.Errorf("prod = %s", prod)
	}
}

func TestMulByZero(t *testing.T) {
	p := FromInt64s(1, 2, 3)
	if !p.Mul(Zero()).IsZero() || !Zero().Mul(p).IsZero() {
		t.Error("p*0 != 0")
	}
}

func TestAddCancellationNormalizes(t *testing.T) {
	p := FromInt64s(1, 0, 5)
	q := FromInt64s(2, 0, -5)
	if got := p.Add(q); got.Degree() != 0 || got.Coeff(0).Int64() != 3 {
		t.Errorf("cancelled sum = %s (deg %d)", got, got.Degree())
	}
}

func TestQuickRingIdentities(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 6, 40)
		q := randPoly(r, 6, 40)
		s := randPoly(r, 6, 40)
		if !p.Add(q).Equal(q.Add(p)) {
			return false
		}
		if !p.Mul(q).Equal(q.Mul(p)) {
			return false
		}
		if !p.Mul(q.Add(s)).Equal(p.Mul(q).Add(p.Mul(s))) {
			return false
		}
		if !p.Sub(p).IsZero() {
			return false
		}
		return p.Mul(q).Mul(s).Equal(p.Mul(q.Mul(s)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickEvalIsRingHom(t *testing.T) {
	// Evaluation at any integer point is a ring homomorphism.
	f := func(seed int64, tv int32) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 6, 40)
		q := randPoly(r, 6, 40)
		x := mp.NewInt(int64(tv) % 1000)
		sum := new(mp.Int).Add(p.Eval(x), q.Eval(x))
		if p.Add(q).Eval(x).Cmp(sum) != 0 {
			return false
		}
		prod := new(mp.Int).Mul(p.Eval(x), q.Eval(x))
		return p.Mul(q).Eval(x).Cmp(prod) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDerivative(t *testing.T) {
	p := FromInt64s(5, 4, 3, 2) // 2x³+3x²+4x+5
	d := p.Derivative()
	if !d.Equal(FromInt64s(4, 6, 6)) {
		t.Errorf("derivative = %s", d)
	}
	if !FromInt64s(7).Derivative().IsZero() {
		t.Error("constant derivative != 0")
	}
	if !Zero().Derivative().IsZero() {
		t.Error("zero derivative != 0")
	}
}

func TestQuickDerivativeLeibniz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, 5, 30)
		q := randPoly(r, 5, 30)
		// (pq)' = p'q + pq'
		lhs := p.Mul(q).Derivative()
		rhs := p.Derivative().Mul(q).Add(p.Mul(q.Derivative()))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEvalScaledMatchesRationalEvaluation(t *testing.T) {
	// p(a/2^s)·2^(ds) computed directly must match EvalScaled.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		p := randPoly(r, 7, 30)
		if p.IsZero() {
			continue
		}
		a := mp.RandInt(r, 20)
		s := uint(r.Intn(12))
		got := p.EvalScaled(a, s)
		// Direct: Σ p_i a^i 2^((d-i)s).
		d := p.Degree()
		want := new(mp.Int)
		for j := 0; j <= d; j++ {
			term := new(mp.Int).Set(p.Coeff(j))
			for k := 0; k < j; k++ {
				term.Mul(term, a)
			}
			term.Lsh(term, uint(d-j)*s)
			want.Add(want, term)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("EvalScaled mismatch: p=%s a=%s s=%d: got %s want %s", p, a, s, got, want)
		}
	}
}

func TestEvalScaledSignDetectsRoots(t *testing.T) {
	// p = (2x-1)(x-3): roots 1/2 and 3.
	p := FromInt64s(3, -7, 2)
	if got := p.SignAt(mp.NewInt(1), 1); got != 0 { // x = 1/2
		t.Errorf("sign at 1/2 = %d, want 0", got)
	}
	if got := p.SignAt(mp.NewInt(3), 0); got != 0 {
		t.Errorf("sign at 3 = %d, want 0", got)
	}
	if got := p.SignAt(mp.NewInt(1), 0); got != -1 { // p(1) = -2
		t.Errorf("sign at 1 = %d, want -1", got)
	}
	if got := p.SignAt(mp.NewInt(4), 0); got != 1 { // p(4) = 7
		t.Errorf("sign at 4 = %d, want +1", got)
	}
}

func TestSignAtInfinity(t *testing.T) {
	p := FromInt64s(0, 0, 1) // x²
	if p.SignAtNegInf() != 1 || p.SignAtPosInf() != 1 {
		t.Error("x² signs at ±∞")
	}
	q := FromInt64s(0, 1) // x
	if q.SignAtNegInf() != -1 || q.SignAtPosInf() != 1 {
		t.Error("x signs at ±∞")
	}
	r := FromInt64s(0, 0, 0, -2) // -2x³
	if r.SignAtNegInf() != 1 || r.SignAtPosInf() != -1 {
		t.Error("-2x³ signs at ±∞")
	}
}

func TestRootBound(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		nroots := 1 + r.Intn(6)
		roots := make([]*mp.Int, nroots)
		for j := range roots {
			roots[j] = mp.NewInt(int64(r.Intn(2001) - 1000))
		}
		p := FromRoots(roots...)
		b := p.RootBound()
		nb := new(mp.Int).Neg(b)
		for _, root := range roots {
			if root.Cmp(b) >= 0 || root.Cmp(nb) <= 0 {
				t.Fatalf("root %s outside bound (-%s, %s) for %s", root, b, b, p)
			}
		}
		// Bound must be a power of two.
		if bl := b.BitLen(); b.Bit(uint(bl-1)) != 1 || b.Cmp(new(mp.Int).Lsh(mp.NewInt(1), uint(bl-1))) != 0 {
			t.Fatalf("bound %s not a power of two", b)
		}
	}
}

func TestFromRootsEvaluatesToZero(t *testing.T) {
	roots := []*mp.Int{mp.NewInt(-3), mp.NewInt(0), mp.NewInt(5), mp.NewInt(5)}
	p := FromRoots(roots...)
	if p.Degree() != 4 {
		t.Fatalf("degree = %d", p.Degree())
	}
	for _, root := range roots {
		if p.Eval(root).Sign() != 0 {
			t.Errorf("p(%s) != 0", root)
		}
	}
	if !p.Lead().IsOne() {
		t.Error("FromRoots not monic")
	}
}

func TestContentPrimitivePart(t *testing.T) {
	p := FromInt64s(6, -9, 12)
	if got := p.Content(); got.Int64() != 3 {
		t.Errorf("content = %s", got)
	}
	pp := p.PrimitivePart()
	if !pp.Equal(FromInt64s(2, -3, 4)) {
		t.Errorf("primitive part = %s", pp)
	}
	if !Zero().PrimitivePart().IsZero() {
		t.Error("PrimitivePart(0) != 0")
	}
	one := FromInt64s(0, 0, 1)
	if !one.PrimitivePart().Equal(one) {
		t.Error("PrimitivePart(x²) != x²")
	}
}

func TestPseudoRem(t *testing.T) {
	// Pairs whose division skips a degree: one reduction step cancels
	// more than the leading term, yet prem still carries the full power
	// of lc(v), negative in the even/odd pairs.
	pairs := [][2]*Poly{
		{FromInt64s(0, -3, 0, 1), FromInt64s(-3, 0, 3)},                    // x³−3x by 3x²−3
		{FromInt64s(-1, 0, 3, 0, -1), FromInt64s(0, 6, 0, -4)},             // −x⁴+3x²−1 by its derivative
		{FromInt64s(0, 3, 0, -1), FromInt64s(3, 0, -3)},                    // −x³+3x by its derivative
		{FromInt64s(1, 0, 0, 0, -5, 0, 1), FromInt64s(0, 0, 0, -20, 0, 6)}, // x⁶−5x⁴+1 by its derivative
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 80; i++ {
		u := randPoly(r, 8, 30)
		v := randPoly(r, 4, 30)
		if v.IsZero() || u.IsZero() || u.Degree() < v.Degree() {
			continue
		}
		pairs = append(pairs, [2]*Poly{u, v})
	}
	for _, pair := range pairs {
		u, v := pair[0], pair[1]
		rem := PseudoRem(u, v)
		if !rem.IsZero() && rem.Degree() >= v.Degree() {
			t.Fatalf("pseudo-remainder degree %d >= %d", rem.Degree(), v.Degree())
		}
		// lc(v)^k·u = q·v + rem with k = du-dv+1, so lc^k·u - rem is a
		// multiple of v, whose pseudo-remainder by v is zero.
		k := u.Degree() - v.Degree() + 1
		lk := mp.NewInt(1)
		for j := 0; j < k; j++ {
			lk = new(mp.Int).Mul(lk, v.Lead())
		}
		lhs := u.ScaleInt(lk).Sub(rem)
		check := PseudoRem(lhs, v)
		if !check.IsZero() {
			t.Fatalf("pseudo-division identity failed: u=%s v=%s rem=%s", u, v, rem)
		}
	}
}

func TestMulCtxCountsCoefficientMultiplications(t *testing.T) {
	var c metrics.Counters
	ctx := metrics.Ctx{C: &c, Phase: metrics.PhaseTree}
	p := FromInt64s(1, 2, 3) // 3 coeffs
	q := FromInt64s(4, 5)    // 2 coeffs
	p.MulCtx(ctx, q)
	rep := c.Snapshot()
	if got := rep.Phases[metrics.PhaseTree].Muls; got != 6 {
		t.Errorf("MulCtx recorded %d muls, want 6", got)
	}
}

func TestEvalCtxCountsDegreeMultiplications(t *testing.T) {
	var c metrics.Counters
	ctx := metrics.Ctx{C: &c, Phase: metrics.PhaseBisection}
	p := FromInt64s(1, 2, 3, 4, 5) // degree 4
	p.EvalScaledCtx(ctx, mp.NewInt(7), 3)
	rep := c.Snapshot()
	pr := rep.Phases[metrics.PhaseBisection]
	if pr.Muls != 4 {
		t.Errorf("EvalScaledCtx recorded %d muls, want 4", pr.Muls)
	}
	if pr.Evals != 1 {
		t.Errorf("EvalScaledCtx recorded %d evals, want 1", pr.Evals)
	}
}

func TestString(t *testing.T) {
	cases := map[string]*Poly{
		"0":              Zero(),
		"42":             FromInt64s(42),
		"-x":             FromInt64s(0, -1),
		"x^2 - 2x + 1":   nil, // placeholder; rendered form checked below
		"3*x^2 + x - 7":  FromInt64s(-7, 1, 3),
		"x^3 - x":        FromInt64s(0, -1, 0, 1),
		"-2*x^2 + x + 1": FromInt64s(1, 1, -2),
	}
	delete(cases, "x^2 - 2x + 1")
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestMaxCoeffBits(t *testing.T) {
	p := FromInt64s(3, -255, 7)
	if got := p.MaxCoeffBits(); got != 8 {
		t.Errorf("MaxCoeffBits = %d, want 8", got)
	}
	if Zero().MaxCoeffBits() != 0 {
		t.Error("MaxCoeffBits(0) != 0")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := FromInt64s(1, 2, 3)
	q := p.Clone()
	q.c[0].SetInt64(99)
	if p.Coeff(0).Int64() != 1 {
		t.Error("Clone shares coefficient storage")
	}
}
