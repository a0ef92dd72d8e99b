package sturm

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/oracle/bigref"
	"realroots/internal/poly"
)

func noCtx() metrics.Ctx { return metrics.Ctx{} }

func dy(num int64, scale uint) dyadic.Dyadic { return dyadic.New(mp.NewInt(num), scale) }

func distinctRoots(r *rand.Rand, k, span int) []*mp.Int {
	seen := map[int64]bool{}
	var roots []*mp.Int
	for len(roots) < k {
		v := int64(r.Intn(2*span+1) - span)
		if !seen[v] {
			seen[v] = true
			roots = append(roots, mp.NewInt(v))
		}
	}
	return roots
}

func TestChainCounts(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(-5), mp.NewInt(0), mp.NewInt(3), mp.NewInt(12))
	c, err := NewChain(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountAll(); got != 4 {
		t.Fatalf("CountAll = %d", got)
	}
	cases := []struct {
		a, b int64
		want int
	}{
		{-100, 100, 4}, {-1, 100, 3}, {-1, 3, 2}, {0, 3, 1}, {-5, 0, 1}, {-6, 0, 2}, {3, 12, 1}, {12, 20, 0},
	}
	for _, cs := range cases {
		if got := c.Count(noCtx(), dy(cs.a, 0), dy(cs.b, 0)); got != cs.want {
			t.Errorf("Count(%d, %d] = %d, want %d", cs.a, cs.b, got, cs.want)
		}
	}
}

func TestChainRejectsNonSquarefree(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(1))
	if _, err := NewChain(p); err == nil {
		t.Fatal("repeated roots accepted")
	}
}

func TestChainWithComplexRoots(t *testing.T) {
	// x²+1 is squarefree; its Sturm chain reports zero real roots.
	c, err := NewChain(poly.FromInt64s(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountAll(); got != 0 {
		t.Fatalf("x²+1 real-root count = %d", got)
	}
	// Mixed: (x²+1)(x-2).
	c, err = NewChain(poly.FromInt64s(1, 0, 1).Mul(poly.FromRoots(mp.NewInt(2))))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CountAll(); got != 1 {
		t.Fatalf("(x²+1)(x-2) real-root count = %d", got)
	}
}

// TestChainCountsMatchBigref counts the roots of even and odd
// polynomials, whose remainder steps skip a degree, with a negative
// leading coefficient or complex roots, so that some lc(v) < 0. Such a
// chain is right only when each pseudo-remainder carries the full power
// lc(v)^(deg u − deg v + 1) that NewChain's sign rule assumes; a chain
// whose leading coefficients are all positive, as for a real-rooted
// input with a positive leading coefficient, cannot show the
// difference.
func TestChainCountsMatchBigref(t *testing.T) {
	for _, coeffs := range [][]int64{
		{2, 0, -1},                // −x²+2
		{0, 3, 0, -1},             // −x³+3x
		{-1, 0, 3, 0, -1},         // −x⁴+3x²−1
		{1, 0, 1, 0, 1},           // x⁴+x²+1
		{-2, 0, 1, 0, 1},          // x⁴+x²−2
		{1, 0, 0, 0, -5, 0, 1},    // x⁶−5x⁴+1
		{0, 1, 0, 0, 0, -4, 0, 1}, // x⁷−4x⁵+x
	} {
		p := poly.FromInt64s(coeffs...)
		c, err := NewChain(p)
		if err != nil {
			t.Fatalf("NewChain(%s): %v", p, err)
		}
		bc := make([]*big.Int, len(coeffs))
		for i, v := range coeffs {
			bc[i] = big.NewInt(v)
		}
		want, err := bigref.CountRoots(bc)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.CountAll(); got != want {
			t.Errorf("CountAll(%s) = %d, bigref counts %d", p, got, want)
		}
	}
}

func TestFindRootsIntegerRoots(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		n := 1 + r.Intn(9)
		roots := distinctRoots(r, n, 50)
		p := poly.FromRoots(roots...)
		got, err := FindRoots(p, 8, noCtx())
		if err != nil {
			t.Fatalf("FindRoots: %v", err)
		}
		if len(got) != n {
			t.Fatalf("got %d roots, want %d", len(got), n)
		}
		want := make([]int64, n)
		for i, rt := range roots {
			want[i] = rt.Int64()
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && want[j] < want[j-1]; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		for i := range got {
			if !got[i].IsInt() || got[i].Num().Int64() != want[i] {
				t.Fatalf("root %d = %v, want %d", i, got[i], want[i])
			}
		}
	}
}

func TestFindRootsHandlesNonRealSubset(t *testing.T) {
	// (x²+3)(x-1)(x+2): only two real roots; the Sturm baseline (unlike
	// the parallel algorithm) handles polynomials with complex roots.
	p := poly.FromInt64s(3, 0, 1).Mul(poly.FromRoots(mp.NewInt(1), mp.NewInt(-2)))
	got, err := FindRoots(p, 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Num().Int64() != -2 || got[1].Num().Int64() != 1 {
		t.Fatalf("roots = %v", got)
	}
}

func TestFindRootsRepeated(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(4), mp.NewInt(4), mp.NewInt(-7))
	got, err := FindRoots(p, 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Num().Int64() != -7 || got[1].Num().Int64() != 4 {
		t.Fatalf("roots = %v", got)
	}
}

func TestFindRootsCeiling(t *testing.T) {
	// √2 at µ=8: x̃ = ⌈256·√2⌉/256 = 363/256.
	got, err := FindRoots(poly.FromInt64s(-2, 0, 1), 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	if !got[1].Equal(dy(363, 8)) {
		t.Fatalf("√2 approx = %v, want 363/2^8", got[1])
	}
}

func TestQuickAgainstFromRoots(t *testing.T) {
	f := func(seed int64, muRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mu := uint(muRaw%16) + 1
		n := 1 + r.Intn(6)
		// Dyadic roots with scale ≤ 3.
		seen := map[string]bool{}
		var roots []dyadic.Dyadic
		for len(roots) < n {
			d := dyadic.New(mp.NewInt(int64(r.Intn(129)-64)), uint(r.Intn(4)))
			if !seen[d.String()] {
				seen[d.String()] = true
				roots = append(roots, d)
			}
		}
		p := poly.FromInt64s(1)
		for _, rt := range roots {
			p = p.Mul(poly.New(new(mp.Int).Neg(rt.Num()), new(mp.Int).Lsh(mp.NewInt(1), rt.Scale())))
		}
		got, err := FindRoots(p, mu, noCtx())
		if err != nil || len(got) != n {
			return false
		}
		for i := 1; i < len(roots); i++ {
			for j := i; j > 0 && roots[j].Cmp(roots[j-1]) < 0; j-- {
				roots[j], roots[j-1] = roots[j-1], roots[j]
			}
		}
		for i := range got {
			if !got[i].Equal(roots[i].CeilGrid(mu)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := FindRoots(poly.FromInt64s(5), 4, noCtx()); err == nil {
		t.Error("constant accepted")
	}
	if _, err := NewChain(poly.Zero()); err == nil {
		t.Error("zero accepted")
	}
}

func TestEvalsRecorded(t *testing.T) {
	var c metrics.Counters
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(5), mp.NewInt(-3))
	if _, err := FindRoots(p, 16, metrics.Ctx{C: &c}); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Phases[metrics.PhaseOther].Evals == 0 {
		t.Error("no evaluations recorded")
	}
}
