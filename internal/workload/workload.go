// Package workload generates the input polynomials used by the tests,
// examples, and benchmark harness. The paper's evaluation inputs (§5)
// are characteristic polynomials of random symmetric 0-1 matrices;
// several classical all-real-rooted families (Wilkinson, Chebyshev,
// Hermite, Laguerre) are provided as well for tests and examples.
package workload

import (
	"math"
	"math/rand"

	"realroots/internal/charpoly"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// CharPoly01 returns the characteristic polynomial of a random
// symmetric n×n 0-1 matrix drawn from the given seed — the paper's
// input distribution. The result is deterministic in (seed, n).
func CharPoly01(seed int64, n int) *poly.Poly {
	r := rand.New(rand.NewSource(seed))
	return charpoly.CharPoly(charpoly.RandomSymmetric01(r, n))
}

// SymmetricRows01 returns the rows of the random symmetric n×n 0-1
// matrix that CharPoly01 takes the characteristic polynomial of: the
// same seed yields the same matrix, so a matrix solve request built
// from these rows is the charpoly-input twin of the CharPoly01
// polynomial request. The solve-server load generator uses this to mix
// matrix and polynomial forms of one instance in a workload.
func SymmetricRows01(seed int64, n int) [][]int64 {
	r := rand.New(rand.NewSource(seed))
	m := charpoly.RandomSymmetric01(r, n)
	rows := make([][]int64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			rows[i][j] = m.At(i, j)
		}
	}
	return rows
}

// SymmetricRowsWide returns the rows of a random symmetric n×n matrix
// with MinInt64 on the diagonal and the other entries drawn from the
// whole int64 range: the widest entries a matrix input can carry, whose
// characteristic polynomial at n = 64 needs 135 primes. Deadline tests
// of the matrix path use it.
func SymmetricRowsWide(seed int64, n int) [][]int64 {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, n)
		rows[i][i] = math.MinInt64
		for j := 0; j < i; j++ {
			rows[i][j] = int64(r.Uint64())
			rows[j][i] = rows[i][j]
		}
	}
	return rows
}

// CharPolyBounded returns the characteristic polynomial of a random
// symmetric matrix with entries in [-bound, bound], giving larger
// coefficient sizes m(n) than the 0-1 case.
func CharPolyBounded(seed int64, n int, bound int64) *poly.Poly {
	r := rand.New(rand.NewSource(seed))
	return charpoly.CharPoly(charpoly.RandomSymmetric(r, n, bound))
}

// Wilkinson returns ∏_{i=1}^{n} (x - i), the classic ill-conditioned
// real-rooted polynomial.
func Wilkinson(n int) *poly.Poly {
	p := poly.FromInt64s(1)
	for i := 1; i <= n; i++ {
		p = p.MulLinear(mp.NewInt(int64(i)))
	}
	return p
}

// Chebyshev returns the Chebyshev polynomial of the first kind T_n,
// whose n roots are cos((2k-1)π/2n) ∈ (-1, 1).
func Chebyshev(n int) *poly.Poly {
	t0 := poly.FromInt64s(1)
	if n == 0 {
		return t0
	}
	t1 := poly.FromInt64s(0, 1)
	twoX := poly.FromInt64s(0, 2)
	for i := 1; i < n; i++ {
		t0, t1 = t1, twoX.Mul(t1).Sub(t0)
	}
	return t1
}

// Hermite returns the physicists' Hermite polynomial H_n
// (H_{k+1} = 2x·H_k - 2k·H_{k-1}), with integer coefficients and n
// distinct real roots.
func Hermite(n int) *poly.Poly {
	h0 := poly.FromInt64s(1)
	if n == 0 {
		return h0
	}
	h1 := poly.FromInt64s(0, 2)
	twoX := poly.FromInt64s(0, 2)
	for k := 1; k < n; k++ {
		h0, h1 = h1, twoX.Mul(h1).Sub(h0.ScaleInt(mp.NewInt(int64(2*k))))
	}
	return h1
}

// Laguerre returns the scaled Laguerre polynomial n!·L_n, which has
// integer coefficients and n distinct positive real roots
// (recurrence: Ľ_{k+1} = (2k+1-x)·Ľ_k - k²·Ľ_{k-1}).
func Laguerre(n int) *poly.Poly {
	l0 := poly.FromInt64s(1)
	if n == 0 {
		return l0
	}
	l1 := poly.FromInt64s(1, -1)
	for k := 1; k < n; k++ {
		a := poly.FromInt64s(int64(2*k+1), -1)
		l0, l1 = l1, a.Mul(l1).Sub(l0.ScaleInt(mp.NewInt(int64(k*k))))
	}
	return l1
}

// RandomIntRoots returns ∏ (x - r_k) for n distinct random integers
// r_k ∈ [-span, span], deterministic in the seed.
func RandomIntRoots(seed int64, n, span int) *poly.Poly {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var roots []*mp.Int
	for len(roots) < n {
		v := int64(r.Intn(2*span+1) - span)
		if !seen[v] {
			seen[v] = true
			roots = append(roots, mp.NewInt(v))
		}
	}
	return poly.FromRoots(roots...)
}

// WithMultiplicities returns ∏ (x - r_k)^{m_k} for distinct random
// integer roots with multiplicities in [1, maxMult].
func WithMultiplicities(seed int64, nroots, span, maxMult int) *poly.Poly {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	p := poly.FromInt64s(1)
	count := 0
	for count < nroots {
		v := int64(r.Intn(2*span+1) - span)
		if seen[v] {
			continue
		}
		seen[v] = true
		count++
		m := 1 + r.Intn(maxMult)
		for j := 0; j < m; j++ {
			p = p.MulLinear(mp.NewInt(v))
		}
	}
	return p
}

// Legendre returns 2^n·P_n, the Legendre polynomial scaled to integer
// coefficients ((n+1)·A_{n+1} = 2(2n+1)x·A_n - 4n·A_{n-1} with exact
// divisions), with n distinct real roots in (-1, 1).
func Legendre(n int) *poly.Poly {
	a0 := poly.FromInt64s(1)
	if n == 0 {
		return a0
	}
	a1 := poly.FromInt64s(0, 2)
	for k := 1; k < n; k++ {
		x := poly.FromInt64s(0, int64(2*(2*k+1)))
		next := x.Mul(a1).Sub(a0.ScaleInt(mp.NewInt(int64(4 * k))))
		next = next.DivExactInt(mp.NewInt(int64(k + 1)))
		a0, a1 = a1, next
	}
	return a1
}

// Tridiagonal returns the characteristic polynomial of a random
// symmetric tridiagonal (Jacobi) matrix with diagonal entries in
// [-bound, bound] and non-zero off-diagonal entries in [1, bound]. Such
// matrices always have n *distinct* real eigenvalues, making this a
// guaranteed-squarefree workload; the three-term recurrence
// p_k = (x - a_k)·p_{k-1} - b_{k-1}²·p_{k-2} computes it in O(n²)
// coefficient operations (versus Θ(n⁴) for the dense Faddeev–LeVerrier
// route), so much larger degrees are reachable.
func Tridiagonal(seed int64, n int, bound int64) *poly.Poly {
	if n < 1 {
		panic("workload: Tridiagonal needs n ≥ 1")
	}
	r := rand.New(rand.NewSource(seed))
	prev := poly.FromInt64s(1) // p_0
	a1 := r.Int63n(2*bound+1) - bound
	cur := poly.FromInt64s(-a1, 1) // p_1 = x - a_1
	for k := 2; k <= n; k++ {
		ak := r.Int63n(2*bound+1) - bound
		bk := 1 + r.Int63n(bound) // non-zero
		lin := poly.FromInt64s(-ak, 1)
		next := lin.Mul(cur).Sub(prev.ScaleInt(mp.NewInt(bk * bk)))
		prev, cur = cur, next
	}
	return cur
}
