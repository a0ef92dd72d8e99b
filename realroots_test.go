package realroots

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"realroots/internal/oracle/bigref"
)

func ratInt(v int64) *big.Rat { return new(big.Rat).SetInt64(v) }

func TestQuickstartSqrt2(t *testing.T) {
	res, err := FindRootsInt64([]int64{-2, 0, 1}, &Options{Precision: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degree != 2 || res.Distinct != 2 || res.Precision != 32 {
		t.Fatalf("metadata: %+v", res)
	}
	sqrt2 := 1.4142135623730951
	if v := res.Roots[1].Float64(); v < sqrt2 || v > sqrt2+1e-9 {
		t.Fatalf("√2 ≈ %v", v)
	}
	if v := res.Roots[0].Float64(); v > -sqrt2+1e-9 || v < -sqrt2-1e-9 {
		t.Fatalf("-√2 ≈ %v", v)
	}
	// 32 bits of √2: the decimal rendering starts 1.41421356.
	if got := res.Roots[1].Decimal(8); got != "1.41421356" {
		t.Fatalf("Decimal = %q", got)
	}
}

func TestDefaultOptions(t *testing.T) {
	res, err := FindRootsInt64([]int64{-1, 0, 0, 1}, nil) // x³-1: root 1
	if err != nil {
		// x³-1 has complex roots; must be rejected.
		if !errors.Is(err, ErrNotAllReal) {
			t.Fatalf("err = %v", err)
		}
		return
	}
	t.Fatalf("x³-1 accepted: %+v", res)
}

func TestIntegerRootsExact(t *testing.T) {
	// (x+3)(x-1)(x-10) = x³ -8x² -23x +30.
	res, err := FindRootsInt64([]int64{30, -23, -8, 1}, &Options{Precision: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{-3, 1, 10}
	for i, w := range want {
		if res.Roots[i].Value.Cmp(ratInt(w)) != 0 {
			t.Fatalf("root %d = %v, want %d", i, res.Roots[i], w)
		}
		if res.Roots[i].Multiplicity != 1 {
			t.Fatalf("multiplicity %d", res.Roots[i].Multiplicity)
		}
	}
}

func TestRepeatedRoots(t *testing.T) {
	// (x-2)²(x+1) = x³ -3x² +4... expand: (x²-4x+4)(x+1) = x³-3x²+0x+4.
	res, err := FindRootsInt64([]int64{4, 0, -3, 1}, &Options{Precision: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != 2 || res.Degree != 3 {
		t.Fatalf("distinct=%d degree=%d", res.Distinct, res.Degree)
	}
	if res.Roots[0].Value.Cmp(ratInt(-1)) != 0 || res.Roots[0].Multiplicity != 1 {
		t.Fatalf("root 0: %+v", res.Roots[0])
	}
	if res.Roots[1].Value.Cmp(ratInt(2)) != 0 || res.Roots[1].Multiplicity != 2 {
		t.Fatalf("root 1: %+v", res.Roots[1])
	}
}

func TestBigIntCoefficients(t *testing.T) {
	// (x - 10^20)(x + 10^20) = x² - 10^40.
	big20 := new(big.Int).Exp(big.NewInt(10), big.NewInt(20), nil)
	c0 := new(big.Int).Neg(new(big.Int).Mul(big20, big20))
	res, err := FindRoots([]*big.Int{c0, big.NewInt(0), big.NewInt(1)}, &Options{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Rat).SetInt(big20)
	if res.Roots[1].Value.Cmp(want) != 0 {
		t.Fatalf("root = %v, want 10^20", res.Roots[1])
	}
}

func TestNilCoefficientRejected(t *testing.T) {
	if _, err := FindRoots([]*big.Int{big.NewInt(1), nil}, nil); err == nil {
		t.Fatal("nil coefficient accepted")
	}
}

func TestConstantRejected(t *testing.T) {
	if _, err := FindRootsInt64([]int64{5}, nil); err == nil {
		t.Fatal("constant accepted")
	}
	if _, err := FindRootsInt64(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestMethodsAgree(t *testing.T) {
	coeffs := []int64{30, -23, -8, 1}
	var base *Result
	for _, m := range []Method{Hybrid, Bisection, Newton} {
		res, err := FindRootsInt64(coeffs, &Options{Precision: 24, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i := range base.Roots {
			if base.Roots[i].Value.Cmp(res.Roots[i].Value) != 0 {
				t.Fatalf("method %d: root %d differs", m, i)
			}
		}
	}
}

func TestEigenvalues(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	res, err := Eigenvalues([][]int64{{2, 1}, {1, 2}}, &Options{Precision: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 2 ||
		res.Roots[0].Value.Cmp(ratInt(1)) != 0 ||
		res.Roots[1].Value.Cmp(ratInt(3)) != 0 {
		t.Fatalf("eigenvalues: %v", res.Roots)
	}
}

func TestEigenvaluesRejectsAsymmetric(t *testing.T) {
	if _, err := Eigenvalues([][]int64{{0, 1}, {-1, 0}}, nil); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	if _, err := Eigenvalues([][]int64{{1, 2}, {3}}, nil); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestIsolate(t *testing.T) {
	ivs, err := Isolate([]*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}, &Options{Precision: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("%d intervals", len(ivs))
	}
	step := new(big.Rat).SetFrac64(1, 1024)
	for _, iv := range ivs {
		w := new(big.Rat).Sub(iv[1], iv[0])
		if w.Cmp(step) != 0 {
			t.Fatalf("interval width %v", w)
		}
	}
	// √2 ∈ (lo, hi].
	lo, _ := ivs[1][0].Float64()
	hi, _ := ivs[1][1].Float64()
	if lo >= 1.4142135623730951 || hi < 1.4142135623730951 {
		t.Fatalf("√2 not in (%v, %v]", lo, hi)
	}
}

func TestCountRealRoots(t *testing.T) {
	cases := []struct {
		coeffs []int64
		want   int
	}{
		{[]int64{-2, 0, 1}, 2},       // x²-2
		{[]int64{1, 0, 1}, 0},        // x²+1
		{[]int64{0, 1}, 1},           // x
		{[]int64{-1, 0, 0, 1}, 1},    // x³-1 (one real root)
		{[]int64{4, 0, -3, 1}, 2},    // (x-2)²(x+1): distinct count
		{[]int64{42}, 0},             // constant
		{[]int64{0, -1, 0, 0, 1}, 3}, // x⁴-x = x(x³-1): roots 0, 1 (+complex)... distinct real = 2
	}
	// Fix the last expectation: x⁴ - x = x(x-1)(x²+x+1): 2 real roots.
	cases[len(cases)-1].want = 2
	for _, c := range cases {
		bi := make([]*big.Int, len(c.coeffs))
		for i, v := range c.coeffs {
			bi[i] = big.NewInt(v)
		}
		got, err := CountRealRoots(bi)
		if err != nil {
			t.Fatalf("%v: %v", c.coeffs, err)
		}
		if got != c.want {
			t.Errorf("CountRealRoots(%v) = %d, want %d", c.coeffs, got, c.want)
		}
	}
}

func TestNotAllRealWrapped(t *testing.T) {
	_, err := FindRootsInt64([]int64{1, 0, 1}, nil)
	if !errors.Is(err, ErrNotAllReal) {
		t.Fatalf("err = %v", err)
	}
}

func TestRootStringer(t *testing.T) {
	res, err := FindRootsInt64([]int64{-1, 2}, &Options{Precision: 4}) // 2x-1
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Roots[0].String(); got != "1/2" {
		t.Fatalf("String = %q", got)
	}
	if got := res.Roots[0].Decimal(3); got != "0.500" {
		t.Fatalf("Decimal = %q", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	res, err := FindRootsInt64([]int64{30, -23, -8, 1}, &Options{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not populated")
	}
	if res.Precompute <= 0 || res.TreeSolve <= 0 {
		t.Errorf("stage stats: precompute=%v treesolve=%v", res.Precompute, res.TreeSolve)
	}
}

func TestFindRealRootsGeneralPolynomial(t *testing.T) {
	// (x²+1)(x-3)(x+5): two real roots among four.
	// (x²+1)(x²+2x-15) = x⁴+2x³-15x² + x²+2x-15 = x⁴+2x³-14x²+2x-15.
	coeffs := []*big.Int{
		big.NewInt(-15), big.NewInt(2), big.NewInt(-14), big.NewInt(2), big.NewInt(1),
	}
	res, err := FindRealRoots(coeffs, &Options{Precision: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != 2 {
		t.Fatalf("found %d real roots: %v", res.Distinct, res.Roots)
	}
	if res.Roots[0].Value.Cmp(ratInt(-5)) != 0 || res.Roots[1].Value.Cmp(ratInt(3)) != 0 {
		t.Fatalf("roots = %v", res.Roots)
	}
}

func TestFindRealRootsMatchesFindRootsOnRealInputs(t *testing.T) {
	coeffs := []*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}
	a, err := FindRoots(coeffs, &Options{Precision: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindRealRoots(coeffs, &Options{Precision: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Roots) != len(b.Roots) {
		t.Fatalf("%d vs %d roots", len(a.Roots), len(b.Roots))
	}
	for i := range a.Roots {
		if a.Roots[i].Value.Cmp(b.Roots[i].Value) != 0 {
			t.Fatalf("root %d: %v vs %v", i, a.Roots[i], b.Roots[i])
		}
	}
}

// TestFindRealRootsMatchesBigref checks the general-input entry points
// against bigref where a Sturm chain has remainder steps that skip a
// degree and negative leading coefficients: seven even or odd
// polynomials with a negative leading coefficient or complex roots,
// then a seeded sweep of small polynomials, half of them even or odd.
func TestFindRealRootsMatchesBigref(t *testing.T) {
	cases := [][]int64{
		{2, 0, -1},                // −x²+2
		{0, 3, 0, -1},             // −x³+3x
		{-1, 0, 3, 0, -1},         // −x⁴+3x²−1
		{1, 0, 1, 0, 1},           // x⁴+x²+1
		{-2, 0, 1, 0, 1},          // x⁴+x²−2
		{1, 0, 0, 0, -5, 0, 1},    // x⁶−5x⁴+1
		{0, 1, 0, 0, 0, -4, 0, 1}, // x⁷−4x⁵+x
	}
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 320; i++ {
		c := make([]int64, 3+r.Intn(7)) // degree 2–8 before trimming
		for j := range c {
			c[j] = int64(r.Intn(7) - 3)
		}
		if i%2 == 1 {
			parity := r.Intn(2) // keep the even or the odd powers
			for j := range c {
				if j%2 != parity {
					c[j] = 0
				}
			}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		bi := make([]*big.Int, len(c))
		for i, v := range c {
			bi[i] = big.NewInt(v)
		}
		checkRealRootsVsBigref(t, bi, 12)
	}
}

// checkRealRootsVsBigref solves coeffs with FindRealRootsContext under
// a deadline, so that a hang fails instead of stalling, and compares its
// roots with bigref.FindRoots and CountRealRoots with bigref.CountRoots.
// Constant inputs, which bigref rejects, are skipped.
func checkRealRootsVsBigref(t *testing.T, coeffs []*big.Int, mu uint) {
	t.Helper()
	want, err := bigref.FindRoots(coeffs, mu)
	if err != nil {
		return
	}
	res, err := FindRealRootsContext(context.Background(), coeffs, &Options{Precision: mu, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("FindRealRoots(%v, µ=%d): %v", coeffs, mu, err)
	}
	same := len(res.Roots) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = res.Roots[i].Value.Cmp(want[i]) == 0
	}
	if !same {
		t.Fatalf("FindRealRoots(%v, µ=%d) = %v, bigref finds %v", coeffs, mu, res.Roots, want)
	}
	wantN, err := bigref.CountRoots(coeffs)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := CountRealRoots(coeffs); err != nil || n != wantN {
		t.Fatalf("CountRealRoots(%v) = %d, %v; bigref counts %d", coeffs, n, err, wantN)
	}
}

func TestFindRealRootsErrors(t *testing.T) {
	if _, err := FindRealRoots([]*big.Int{big.NewInt(7)}, nil); err == nil {
		t.Error("constant accepted")
	}
	if _, err := FindRealRoots([]*big.Int{nil, big.NewInt(1)}, nil); err == nil {
		t.Error("nil coefficient accepted")
	}
}

func TestConcurrentPublicAPIUse(t *testing.T) {
	// The library must be safe for concurrent use by independent callers
	// (no shared mutable state outside explicit options).
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			coeffs := []int64{int64(30 + g), -23, -8, 1}
			for i := 0; i < 5; i++ {
				if _, err := FindRootsInt64(coeffs, &Options{Precision: 16, Workers: 1 + g%3}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
