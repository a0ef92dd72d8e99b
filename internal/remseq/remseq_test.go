package remseq

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/charpoly"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sched"
)

func noCtx() metrics.Ctx { return metrics.Ctx{} }

func mustCompute(t *testing.T, p *poly.Poly) *Sequence {
	t.Helper()
	s, err := Compute(p, Options{})
	if err != nil {
		t.Fatalf("Compute(%s): %v", p, err)
	}
	return s
}

// distinctIntRoots returns k distinct integers in [-50, 50].
func distinctIntRoots(r *rand.Rand, k int) []*mp.Int {
	seen := map[int64]bool{}
	var roots []*mp.Int
	for len(roots) < k {
		v := int64(r.Intn(101) - 50)
		if !seen[v] {
			seen[v] = true
			roots = append(roots, mp.NewInt(v))
		}
	}
	return roots
}

func TestDegreesAndLinearQuotients(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		p := poly.FromRoots(distinctIntRoots(r, n)...)
		s := mustCompute(t, p)
		if len(s.F) != n+1 {
			t.Fatalf("len(F) = %d", len(s.F))
		}
		for i, fi := range s.F {
			if fi.Degree() != n-i {
				t.Fatalf("deg F_%d = %d, want %d (p=%s)", i, fi.Degree(), n-i, p)
			}
		}
		for i := 1; i < n; i++ {
			if s.Q[i].Degree() != 1 {
				t.Fatalf("deg Q_%d = %d, want 1", i, s.Q[i].Degree())
			}
			if s.Q[i].Lead().Sign() <= 0 {
				// q_{i,1} = c_{i-1}c_i; consecutive leading coefficients of a
				// real-rooted chain have the same sign (Theorem 1(i)).
				t.Fatalf("Q_%d has non-positive leading coefficient %s", i, s.Q[i].Lead())
			}
		}
	}
}

func TestRecurrenceIdentity(t *testing.T) {
	// F_{i+1}·c_{i-1}² == Q_i·F_i - c_i²·F_{i-1} as polynomials.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(7)
		p := poly.FromRoots(distinctIntRoots(r, n)...)
		s := mustCompute(t, p)
		for i := 1; i < n; i++ {
			rhs := s.Q[i].Mul(s.F[i]).Sub(s.F[i-1].ScaleInt(new(mp.Int).Sqr(s.F[i].Lead())))
			lhs := s.F[i+1].ScaleInt(s.Csq(i - 1))
			if !lhs.Equal(rhs) {
				t.Fatalf("recurrence fails at i=%d for %s", i, p)
			}
		}
	}
}

func TestInterleavingOfF(t *testing.T) {
	// Between consecutive integer roots of F_{i-1}... instead verify the
	// classical consequence: sign changes of F_i at consecutive roots of
	// F_{i-1}. With integer roots for F_0 only, check i=1 directly: F_1
	// must change sign between consecutive roots of F_0 — equivalently
	// F_1 has a root there. We check sgn(F_1(r_j))·sgn(F_1(r_{j+1})) < 0.
	roots := []*mp.Int{mp.NewInt(-9), mp.NewInt(-2), mp.NewInt(0), mp.NewInt(3), mp.NewInt(11)}
	p := poly.FromRoots(roots...)
	s := mustCompute(t, p)
	for j := 0; j+1 < len(roots); j++ {
		a := s.F[1].Eval(roots[j]).Sign()
		b := s.F[1].Eval(roots[j+1]).Sign()
		if a*b >= 0 {
			t.Fatalf("F_1 does not change sign on [%s, %s]", roots[j], roots[j+1])
		}
	}
}

func TestCsqConvention(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(2), mp.NewInt(3)).ScaleInt(mp.NewInt(-7))
	s := mustCompute(t, p)
	if !s.Csq(0).IsOne() {
		t.Errorf("Csq(0) = %s, want 1 (Appendix A convention)", s.Csq(0))
	}
	want := new(mp.Int).Sqr(s.F[1].Lead())
	if s.Csq(1).Cmp(want) != 0 {
		t.Errorf("Csq(1) = %s, want %s", s.Csq(1), want)
	}
}

func TestRepeatedRootsDetected(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(2), mp.NewInt(2), mp.NewInt(5), mp.NewInt(-1))
	_, err := Compute(p, Options{})
	if !errors.Is(err, ErrNotSquarefree) {
		t.Fatalf("err = %v, want ErrNotSquarefree", err)
	}
	// The sequence stops at F_3 = c·(x-2): n* = 3 distinct roots, and the
	// carried gcd vanishes at the double root.
	var rr *RepeatedRootsError
	if !errors.As(err, &rr) {
		t.Fatalf("err = %T, want *RepeatedRootsError", err)
	}
	if rr.NStar != 3 || rr.GCD.Degree() != 1 || rr.GCD.Eval(mp.NewInt(2)).Sign() != 0 {
		t.Fatalf("n* = %d, gcd = %s; want 3 and a multiple of x-2", rr.NStar, rr.GCD)
	}
}

func TestAbnormalDropIsNotAllReal(t *testing.T) {
	// x³+1: F_2 is a constant, a degree drop by two. The sequence says
	// "not all real" by itself, with no gcd computed to classify it.
	_, err := Compute(poly.FromInt64s(1, 0, 0, 1), Options{})
	if !errors.Is(err, ErrNotAllReal) || errors.Is(err, ErrNotSquarefree) {
		t.Fatalf("err = %v, want ErrNotAllReal", err)
	}
}

func TestComplexRootsDetected(t *testing.T) {
	// (x²+1)(x-3)(x+4)(x²+x+9): squarefree but not all real. Either the
	// structural checks or Validate must reject it.
	p := poly.FromInt64s(1, 0, 1).Mul(poly.FromRoots(mp.NewInt(3), mp.NewInt(-4))).Mul(poly.FromInt64s(9, 1, 1))
	s, err := Compute(p, Options{})
	if err == nil {
		err = s.Validate()
	}
	if !errors.Is(err, ErrNotAllReal) {
		t.Fatalf("err = %v, want ErrNotAllReal", err)
	}
}

func TestPureComplexNormalSequenceCaughtByValidate(t *testing.T) {
	// x²+1 yields a structurally normal sequence; Validate must catch it.
	p := poly.FromInt64s(1, 0, 1)
	s, err := Compute(p, Options{})
	if err == nil {
		err = s.Validate()
	}
	if !errors.Is(err, ErrNotAllReal) {
		t.Fatalf("err = %v, want ErrNotAllReal", err)
	}
}

func TestDegreeZeroRejected(t *testing.T) {
	if _, err := Compute(poly.FromInt64s(5), Options{}); err == nil {
		t.Fatal("constant accepted")
	}
	if _, err := Compute(poly.Zero(), Options{}); err == nil {
		t.Fatal("zero polynomial accepted")
	}
}

func TestDegreeOne(t *testing.T) {
	p := poly.FromInt64s(-6, 2) // 2x - 6
	s := mustCompute(t, p)
	if s.RealRootCount() != 1 {
		t.Fatalf("root count = %d", s.RealRootCount())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSturmRealRootCount(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(8)
		p := poly.FromRoots(distinctIntRoots(r, n)...)
		s := mustCompute(t, p)
		if got := s.RealRootCount(); got != n {
			t.Fatalf("RealRootCount = %d, want %d (p=%s)", got, n, p)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCountRootsBelow(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(-5), mp.NewInt(0), mp.NewInt(4))
	s := mustCompute(t, p)
	cases := []struct {
		num   int64
		scale uint
		want  int
	}{
		{-6, 0, 0}, {-9, 1, 1} /* -4.5 */, {1, 1, 2} /* 0.5 */, {9, 1, 3} /* 4.5 */, {100, 0, 3},
	}
	for _, c := range cases {
		if got := s.CountRootsBelow(noCtx(), mp.NewInt(c.num), c.scale); got != c.want {
			t.Errorf("CountRootsBelow(%d/2^%d) = %d, want %d", c.num, c.scale, got, c.want)
		}
	}
}

func TestCharPolyInputs(t *testing.T) {
	// The paper's own workload: characteristic polynomials of random
	// symmetric 0-1 matrices are real-rooted; most are squarefree.
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(8)
		p := charpoly.CharPoly(charpoly.RandomSymmetric01(r, n))
		s, err := Compute(p, Options{})
		if errors.Is(err, ErrNotSquarefree) {
			continue // rare but legitimate
		}
		if err != nil {
			t.Fatalf("charpoly n=%d: %v", n, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("charpoly n=%d: %v", n, err)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	pool := sched.NewPool(4)
	defer pool.Close()
	for trial := 0; trial < 10; trial++ {
		n := 5 + r.Intn(10)
		p := poly.FromRoots(distinctIntRoots(r, n)...)
		seq := mustCompute(t, p)
		par, err := Compute(p, Options{Pool: pool})
		if err != nil {
			t.Fatalf("parallel Compute: %v", err)
		}
		for i := range seq.F {
			if !seq.F[i].Equal(par.F[i]) {
				t.Fatalf("F_%d differs between sequential and parallel", i)
			}
		}
		for i := 1; i < len(seq.Q); i++ {
			if !seq.Q[i].Equal(par.Q[i]) {
				t.Fatalf("Q_%d differs between sequential and parallel", i)
			}
		}
	}
}

func TestQuickSturmCountsWindow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		roots := distinctIntRoots(r, n)
		p := poly.FromRoots(roots...)
		s, err := Compute(p, Options{})
		if err != nil {
			return false
		}
		// Count roots in (-100, 27.5): compare Sturm against direct count.
		lo, hi := mp.NewInt(-100), mp.NewInt(55) // 55/2 = 27.5
		want := 0
		for _, root := range roots {
			v := root.Int64()
			if v > -100 && v < 27 || v == 27 {
				want++
			}
		}
		got := s.Variations(noCtx(), lo, 0) - s.Variations(noCtx(), hi, 1)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
