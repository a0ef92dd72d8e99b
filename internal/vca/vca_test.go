package vca

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sturm"
	"realroots/internal/workload"
)

func noCtx() metrics.Ctx { return metrics.Ctx{} }

func TestSignVariations(t *testing.T) {
	cases := []struct {
		p    *poly.Poly
		want int
	}{
		{poly.FromInt64s(1, 1, 1), 0},
		{poly.FromInt64s(1, -1, 1), 2},
		{poly.FromInt64s(-1, 0, 1), 1},
		{poly.FromInt64s(1, 0, 0, -3, 5), 2},
		{poly.Zero(), 0},
	}
	for _, c := range cases {
		if got := signVariations(c.p); got != c.want {
			t.Errorf("signVariations(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestTaylorShift(t *testing.T) {
	// p(x) = x² - 3x + 2 → p(x+1) = x² - x.
	p := poly.FromInt64s(2, -3, 1)
	if got := taylorShift1(p); !got.Equal(poly.FromInt64s(0, -1, 1)) {
		t.Fatalf("p(x+1) = %s", got)
	}
	// Shift is a ring homomorphism point: (pq)(x+1) = p(x+1)q(x+1).
	q := poly.FromInt64s(-1, 0, 2)
	lhs := taylorShift1(p.Mul(q))
	rhs := taylorShift1(p).Mul(taylorShift1(q))
	if !lhs.Equal(rhs) {
		t.Fatal("shift not multiplicative")
	}
}

func TestDescartesBound01(t *testing.T) {
	// (2x-1)(3x-2): roots 1/2, 2/3 — bound must be ≥ 2 (and here exact).
	p := poly.FromInt64s(1, -2).Mul(poly.FromInt64s(2, -3)).Neg() // normalize sign
	if got := descartesBound01(p); got < 2 {
		t.Fatalf("bound = %d, want ≥ 2", got)
	}
	// x-2: no roots in (0,1).
	if got := descartesBound01(poly.FromInt64s(-2, 1)); got != 0 {
		t.Fatalf("bound = %d, want 0", got)
	}
	// 2x-1: one root.
	if got := descartesBound01(poly.FromInt64s(-1, 2)); got != 1 {
		t.Fatalf("bound = %d, want 1", got)
	}
}

func TestIsolatePositive(t *testing.T) {
	// Roots 1/2, 3, 7 (and a negative root to be ignored).
	p := poly.FromInt64s(-1, 2).Mul(poly.FromRoots(mp.NewInt(3), mp.NewInt(7), mp.NewInt(-5)))
	ivs := IsolatePositive(p)
	if len(ivs) != 3 {
		t.Fatalf("%d intervals", len(ivs))
	}
	wants := []float64{0.5, 3, 7}
	for i, iv := range ivs {
		lo, hi := iv.Lo.Float64(), iv.Hi.Float64()
		if wants[i] < lo || wants[i] > hi {
			t.Fatalf("interval %d = (%v, %v] misses %v", i, lo, hi, wants[i])
		}
		// Exactly one of the known roots inside.
		count := 0
		for _, w := range wants {
			if w >= lo && w <= hi {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("interval %d = (%v, %v] holds %d roots", i, lo, hi, count)
		}
	}
}

func TestFindRootsMatchesKnownRoots(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		seen := map[int64]bool{}
		var vals []int64
		for len(vals) < n {
			v := int64(r.Intn(101) - 50)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		roots := make([]*mp.Int, n)
		for i, v := range vals {
			roots[i] = mp.NewInt(v)
		}
		p := poly.FromRoots(roots...)
		got, err := FindRoots(p, 8, noCtx())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d roots, want %d (%v)", trial, len(got), n, vals)
		}
		for i, v := range vals {
			if !got[i].IsInt() || got[i].Num().Int64() != v {
				t.Fatalf("trial %d: root %d = %v, want %d", trial, i, got[i], v)
			}
		}
	}
}

func TestFindRootsNegativeMirrorCeiling(t *testing.T) {
	// -√2 at µ=8: x̃ = ⌈-256·√2⌉/256 = -362/256 = -181/128.
	got, err := FindRoots(poly.FromInt64s(-2, 0, 1), 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d roots", len(got))
	}
	if !got[0].Equal(dyadic.New(mp.NewInt(-181), 7)) {
		t.Fatalf("-√2 approx = %v, want -181/2^7", got[0])
	}
	if !got[1].Equal(dyadic.New(mp.NewInt(363), 8)) {
		t.Fatalf("√2 approx = %v, want 363/2^8", got[1])
	}
}

func TestFindRootsAgreesWithSturm(t *testing.T) {
	f := func(seed int64, muRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mu := uint(muRaw%16) + 1
		n := 1 + r.Intn(6)
		seen := map[string]bool{}
		var roots []dyadic.Dyadic
		for len(roots) < n {
			d := dyadic.New(mp.NewInt(int64(r.Intn(129)-64)), uint(r.Intn(3)))
			if !seen[d.String()] {
				seen[d.String()] = true
				roots = append(roots, d)
			}
		}
		p := poly.FromInt64s(1)
		for _, rt := range roots {
			p = p.Mul(poly.New(new(mp.Int).Neg(rt.Num()), new(mp.Int).Lsh(mp.NewInt(1), rt.Scale())))
		}
		a, err := FindRoots(p, mu, noCtx())
		if err != nil {
			return false
		}
		b, err := sturm.FindRoots(p, mu, noCtx())
		if err != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFindRootsNegativeNeighbourOnGrid pins the mirror step when the
// grid point above a negative root's mirror image is the next root: at
// µ = 1, -57/4 must round up to -14 although -29/2 is a root, and -11/4
// to -5/2 although -3 is one.
func TestFindRootsNegativeNeighbourOnGrid(t *testing.T) {
	for _, roots := range [][]*mp.Int{
		{mp.NewInt(-57), mp.NewInt(-58)}, // -57/4, -29/2 in quarters
		{mp.NewInt(-11), mp.NewInt(-12)}, // -11/4, -3 in quarters
	} {
		p := poly.FromInt64s(1)
		for _, r := range roots {
			p = p.Mul(poly.New(new(mp.Int).Neg(r), mp.NewInt(4)))
		}
		got, err := FindRoots(p, 1, noCtx())
		if err != nil {
			t.Fatal(err)
		}
		want, err := sturm.FindRoots(p, 1, noCtx())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
			t.Errorf("roots %v/4 at µ = 1: vca %v, sturm %v", roots, got, want)
		}
	}
}

func TestFindRootsMixedComplex(t *testing.T) {
	// (x²+1)(x-3)(x+5): the isolator must find only the real roots.
	p := poly.FromInt64s(1, 0, 1).Mul(poly.FromRoots(mp.NewInt(3), mp.NewInt(-5)))
	got, err := FindRoots(p, 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Num().Int64() != -5 || got[1].Num().Int64() != 3 {
		t.Fatalf("roots = %v", got)
	}
}

func TestFindRootsRepeatedAndZero(t *testing.T) {
	// x²·(x-4)³·(x+6): distinct roots -6, 0, 4.
	p := poly.FromRoots(mp.NewInt(0), mp.NewInt(0), mp.NewInt(4), mp.NewInt(4), mp.NewInt(4), mp.NewInt(-6))
	got, err := FindRoots(p, 8, noCtx())
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{-6, 0, 4}
	if len(got) != len(want) {
		t.Fatalf("roots = %v", got)
	}
	for i, w := range want {
		if got[i].Num().Int64() != w || !got[i].IsInt() {
			t.Fatalf("root %d = %v, want %d", i, got[i], w)
		}
	}
}

func TestFindRootsCharPolyMatchesSturm(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := workload.CharPoly01(seed, 12)
		a, err := FindRoots(p, 16, noCtx())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sturm.FindRoots(p, 16, noCtx())
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d vs %d roots", seed, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("seed %d root %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := FindRoots(poly.FromInt64s(5), 4, noCtx()); err == nil {
		t.Error("constant accepted")
	}
}
