package realroots

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// wilkinsonCoeffs returns the coefficients of Π (x-k), k = 1..n.
func wilkinsonCoeffs(n int64) []*big.Int {
	c := []*big.Int{big.NewInt(1)}
	for k := int64(1); k <= n; k++ {
		next := make([]*big.Int, len(c)+1)
		for i := range next {
			next[i] = new(big.Int)
		}
		for i, ci := range c {
			next[i+1].Add(next[i+1], ci)
			next[i].Sub(next[i], new(big.Int).Mul(big.NewInt(k), ci))
		}
		c = next
	}
	return c
}

func TestFindRootsContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 4} {
		res, err := FindRootsContext(ctx, wilkinsonCoeffs(10), &Options{Workers: workers})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: no partial result", workers)
		}
		if len(res.Roots) != 0 {
			t.Fatalf("workers=%d: canceled run returned roots", workers)
		}
		if res.Degree != 10 {
			t.Fatalf("workers=%d: partial Degree = %d", workers, res.Degree)
		}
	}
}

func TestOptionsTimeout(t *testing.T) {
	res, err := FindRoots(wilkinsonCoeffs(10), &Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
}

// TestTimeoutBoundsWideCoefficients gives a 100 ms timeout to a
// squarefree solve whose remainder sequence alone takes several times
// longer. The deadline is polled from the first remainder iteration on,
// so the solve stops with ErrDeadline well within a second under either
// profile: no work that skips the poll runs before it.
func TestTimeoutBoundsWideCoefficients(t *testing.T) {
	roots := make([]*mp.Int, 40)
	for i := range roots {
		k := int64(i) + 1
		roots[i] = mp.NewInt(k<<30 + k*k)
	}
	p := poly.FromRoots(roots...)
	if bits := p.MaxCoeffBits(); bits != 1360 {
		t.Fatalf("coefficients have %d bits, want 1360", bits)
	}
	coeffs := make([]*big.Int, p.Degree()+1)
	for i := range coeffs {
		coeffs[i] = p.Coeff(i).ToBig()
	}
	for _, prof := range []Profile{ProfilePaper, ProfileFast} {
		start := time.Now()
		res, err := FindRoots(coeffs, &Options{Timeout: 100 * time.Millisecond, Profile: prof})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("profile %v: err = %v, want ErrDeadline", prof, err)
		}
		if res == nil || len(res.Roots) != 0 {
			t.Fatalf("profile %v: partial result = %+v", prof, res)
		}
		if elapsed > time.Second {
			t.Errorf("profile %v: ErrDeadline after %v, want within 1s of a 100ms timeout", prof, elapsed)
		}
	}
}

// TestTimeoutBoundsWideMatrix gives a 20 ms timeout to the eigenvalues
// of a 64×64 matrix of full-width entries, whose characteristic
// polynomial needs 135 primes. The timeout is armed before the
// characteristic polynomial, which polls it once per prime, so the call
// stops with ErrDeadline well within a second.
func TestTimeoutBoundsWideMatrix(t *testing.T) {
	start := time.Now()
	res, err := Eigenvalues(workload.SymmetricRowsWide(1, 64), &Options{Timeout: 20 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || len(res.Roots) != 0 || res.Degree != 64 {
		t.Fatalf("partial result = %+v", res)
	}
	if elapsed > time.Second {
		t.Errorf("ErrDeadline after %v, want within 1s of a 20ms timeout", elapsed)
	}
}

func TestOptionsMaxBitOps(t *testing.T) {
	res, err := FindRoots(wilkinsonCoeffs(12), &Options{MaxBitOps: 1500, Workers: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
	// A generous budget must not interfere.
	res, err = FindRoots(wilkinsonCoeffs(8), &Options{MaxBitOps: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 8 {
		t.Fatalf("%d roots", len(res.Roots))
	}
}

func TestInvalidOptionsTyped(t *testing.T) {
	_, err := FindRoots(wilkinsonCoeffs(4), &Options{Workers: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	_, err = FindRealRoots(wilkinsonCoeffs(4), &Options{MaxBitOps: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("FindRealRoots err = %v, want ErrInvalidOptions", err)
	}
}

func TestFindRealRootsContextResilience(t *testing.T) {
	// x² - 2: not all-real-restricted, exercises the Sturm baseline.
	coeffs := []*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FindRealRootsContext(ctx, coeffs, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
	if _, err := FindRealRoots(wilkinsonCoeffs(12), &Options{MaxBitOps: 200}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget err = %v, want ErrBudgetExceeded", err)
	}
	// And the healthy path still works with a context.
	res, err = FindRealRootsContext(context.Background(), coeffs, &Options{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 2 {
		t.Fatalf("%d roots", len(res.Roots))
	}
}

func TestEigenvaluesContextCanceled(t *testing.T) {
	m := [][]int64{{2, 1, 0}, {1, 2, 1}, {0, 1, 2}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EigenvaluesContext(ctx, m, &Options{Workers: 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	res, err := EigenvaluesContext(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 3 {
		t.Fatalf("%d eigenvalues", len(res.Roots))
	}
}
