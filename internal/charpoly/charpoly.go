// Package charpoly computes exact characteristic polynomials of integer
// matrices. The paper's evaluation inputs are "the characteristic
// equations of randomly generated symmetric matrices over the integers"
// (§5) — symmetric real matrices have only real eigenvalues, so their
// characteristic polynomials are exactly the real-rooted inputs the
// algorithm requires.
//
// The polynomial is computed modulo word-size primes and recombined by
// the Chinese remainder theorem: for each prime p the matrix is reduced
// to upper Hessenberg form over GF(p) by similarity transforms, and the
// polynomial is read off the Hessenberg recurrence, O(n³) word
// operations per prime. Primes are taken until their product exceeds
// twice a Hadamard-type bound on the coefficients, so the symmetric
// residues are the coefficients themselves.
package charpoly

import (
	"fmt"
	"math"
	"math/rand"

	"realroots/internal/mp"
	"realroots/internal/poly"
)

// A Matrix is a dense n×n matrix of int64 entries.
type Matrix struct {
	n int
	a []int64 // row-major
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("charpoly: invalid dimension %d", n))
	}
	return &Matrix{n: n, a: make([]int64, n*n)}
}

// FromRows builds a matrix from int64 rows; all rows must have equal
// length n ≥ 1.
func FromRows(rows [][]int64) (*Matrix, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("charpoly: empty matrix")
	}
	m := NewMatrix(n)
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("charpoly: row %d has %d entries, want %d", i, len(row), n)
		}
		copy(m.a[i*n:], row)
	}
	return m, nil
}

// Dim returns the dimension n.
func (m *Matrix) Dim() int { return m.n }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) int64 { return m.a[i*m.n+j] }

// SetInt64 sets entry (i, j) to v.
func (m *Matrix) SetInt64(i, j int, v int64) { m.a[i*m.n+j] = v }

// IsSymmetric reports whether m equals its transpose.
func (m *Matrix) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.At(i, j) != m.At(j, i) {
				return false
			}
		}
	}
	return true
}

// RandomSymmetric01 returns a random symmetric n×n 0-1 matrix drawn from
// r — the paper's input distribution (§5: "the matrices generated were
// random 0-1 matrices").
func RandomSymmetric01(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := int64(r.Intn(2))
			m.SetInt64(i, j, v)
			m.SetInt64(j, i, v)
		}
	}
	return m
}

// RandomSymmetric returns a random symmetric matrix with entries uniform
// in [-bound, bound].
func RandomSymmetric(r *rand.Rand, n int, bound int64) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.Int63n(2*bound+1) - bound
			m.SetInt64(i, j, v)
			m.SetInt64(j, i, v)
		}
	}
	return m
}

// CharPoly returns the characteristic polynomial det(λI - A) of A as a
// monic integer polynomial in λ.
func CharPoly(a *Matrix) *poly.Poly {
	p, _ := CharPolyStop(a, nil) // only stop can fail
	return p
}

// CharPolyProfile is CharPoly. The computation is word-size modular
// arithmetic, so no big-integer profile applies; the parameter is kept
// for callers that pass one.
func CharPolyProfile(a *Matrix, _ mp.Profile) *poly.Poly { return CharPoly(a) }

// CharPolyStop is CharPoly polling stop, when non-nil, once per prime;
// it returns stop's error as soon as stop reports one.
func CharPolyStop(a *Matrix, stop func() error) (*poly.Poly, error) {
	n := a.n
	// Every coefficient is at most 2^b in magnitude. A product of odd
	// primes with b+2 bits exceeds 2^(b+1), twice that, so the residue
	// of least magnitude is the coefficient itself.
	ps := primesFor(CoeffBits(a) + 2)
	t := len(ps)
	h := make([]uint64, n*n)
	cp := make([]uint64, (n+1)*(n+2)/2)
	pmod := make([]uint64, t)
	// digits[j*t+k] is the k-th mixed-radix digit of the coefficient of
	// λ^j: c_j = Σ_k digits[j*t+k]·p_0·…·p_{k-1}, each digit in
	// (-p_k/2, p_k/2), so the sum is the residue of c_j of least
	// magnitude modulo p_0·…·p_{t-1}.
	digits := make([]int64, n*t)
	for k, p := range ps {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, err
			}
		}
		res := charPolyMod(a, p, h, cp)
		// Incremental Garner: the digits so far give c_j modulo the
		// product q of the earlier primes; the new digit is
		// (c_j − that) / q modulo p.
		qmod := uint64(1)
		for i, pi := range ps[:k] {
			pmod[i] = pi % p
			qmod = qmod * pmod[i] % p
		}
		qinv := powMod(qmod, p-2, p)
		for j := 0; j < n; j++ {
			dj := digits[j*t : j*t+k]
			y := uint64(0)
			for i := k - 1; i >= 0; i-- {
				y = (y*pmod[i] + uint64(dj[i]+int64(p))) % p
			}
			d := (res[j] + p - y) % p * qinv % p
			if d > p/2 {
				digits[j*t+k] = int64(d) - int64(p)
			} else {
				digits[j*t+k] = int64(d)
			}
		}
	}

	// c_j = d_0 + p_0·(d_1 + p_1·(d_2 + …)), by Horner from the top digit.
	pInts := make([]mp.Int, t)
	for k, p := range ps {
		pInts[k].SetInt64(int64(p))
	}
	coeffs := make([]*mp.Int, n+1)
	var acc mp.Horner
	acc.Reserve(32 * t)
	var d, view mp.Int
	for j := 0; j < n; j++ {
		dj := digits[j*t : (j+1)*t]
		acc.Set(d.SetInt64(dj[t-1]))
		for k := t - 2; k >= 0; k-- {
			acc.Step(&pInts[k], d.SetInt64(dj[k]), 0)
		}
		coeffs[j] = new(mp.Int).Set(acc.View(&view))
	}
	coeffs[n] = mp.NewInt(1)
	return poly.New(coeffs...), nil
}

// charPolyMod returns the coefficients of λ^0, …, λ^(n-1) in
// det(λI − A) modulo the prime p < 2^31, so that a product of two
// residues plus a residue fits in a uint64. h (n² words) and cp
// ((n+1)(n+2)/2 words) are work space; the result aliases cp.
func charPolyMod(a *Matrix, p uint64, h, cp []uint64) []uint64 {
	n := a.n
	for k, v := range a.a {
		h[k] = reduce(v, p)
	}

	// Reduce to upper Hessenberg form by similarity transforms: for
	// each column m−1, bring a non-zero entry below the diagonal to row
	// m by swapping a row and its column, then clear the entries under
	// it with row operations, each undone on the columns.
	for m := 1; m < n-1; m++ {
		piv := m
		for piv < n && h[piv*n+m-1] == 0 {
			piv++
		}
		if piv == n {
			continue
		}
		if piv != m {
			for j := 0; j < n; j++ {
				h[piv*n+j], h[m*n+j] = h[m*n+j], h[piv*n+j]
			}
			for i := 0; i < n; i++ {
				h[i*n+piv], h[i*n+m] = h[i*n+m], h[i*n+piv]
			}
		}
		inv := powMod(h[m*n+m-1], p-2, p)
		rm := h[m*n : m*n+n]
		for i := m + 1; i < n; i++ {
			ri := h[i*n : i*n+n]
			u := ri[m-1] * inv % p
			if u == 0 {
				continue
			}
			// row i −= u·row m, then column m += u·column i.
			nu := p - u
			for j := m - 1; j < n; j++ {
				ri[j] = (ri[j] + nu*rm[j]) % p
			}
			for j := 0; j < n; j++ {
				h[j*n+m] = (h[j*n+m] + u*h[j*n+i]) % p
			}
		}
	}

	// The characteristic polynomial P_m of the leading m×m block obeys
	//   P_m = (λ − h[m−1][m−1])·P_{m−1}
	//         − Σ_{i=1}^{m−1} h[m−i−1][m−1]·t_i·P_{m−i−1},
	// t_i = h[m−1][m−2]·…·h[m−i][m−i−1]. P_m occupies
	// cp[m(m+1)/2 : m(m+1)/2+m+1], lowest degree first.
	cp[0] = 1
	for m := 1; m <= n; m++ {
		prev := cp[(m-1)*m/2 : (m-1)*m/2+m]
		cur := cp[m*(m+1)/2 : m*(m+1)/2+m+1]
		d := (p - h[(m-1)*n+m-1]) % p
		cur[m] = 1
		for k := m - 1; k >= 1; k-- {
			cur[k] = (prev[k-1] + d*prev[k]) % p
		}
		cur[0] = d * prev[0] % p
		t := uint64(1)
		for i := 1; i < m; i++ {
			t = t * h[(m-i)*n+m-i-1] % p
			if t == 0 {
				break
			}
			c := t * h[(m-i-1)*n+m-1] % p
			if c == 0 {
				continue
			}
			nc := p - c
			j := m - i - 1
			for k, v := range cp[j*(j+1)/2 : j*(j+1)/2+j+1] {
				cur[k] = (cur[k] + nc*v) % p
			}
		}
	}
	return cp[n*(n+1)/2 : n*(n+1)/2+n]
}

// reduce returns v mod p in [0, p). The magnitude is taken as a uint64,
// where |MinInt64| = 2^63 fits.
func reduce(v int64, p uint64) uint64 {
	if v >= 0 {
		return uint64(v) % p
	}
	if r := -uint64(v) % p; r != 0 {
		return p - r
	}
	return 0
}

// powMod returns x^e mod p for p < 2^32.
func powMod(x, e, p uint64) uint64 {
	r := uint64(1)
	for x %= p; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * x % p
		}
		x = x * x % p
	}
	return r
}

// primesFor returns the primes below 2^31, largest first, up to the
// first whose product with those before it has at least bits bits.
func primesFor(bits int) []uint64 {
	var ps []uint64
	q := new(mp.Int).SetInt64(1)
	for p := uint64(1<<31 + 1); q.BitLen() < bits; {
		for p -= 2; !isPrime(p); p -= 2 {
		}
		ps = append(ps, p)
		q.MulInt64(q, int64(p))
	}
	return ps
}

// isPrime is the Miller–Rabin test with bases 2, 7 and 61, which is
// exact for odd n in (61, 4759123141).
func isPrime(n uint64) bool {
	d, s := n-1, 0
	for d%2 == 0 {
		d /= 2
		s++
	}
	for _, a := range [...]uint64{2, 7, 61} {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		witness := true
		for r := 1; r < s && witness; r++ {
			x = x * x % n
			witness = x != n-1
		}
		if witness {
			return false
		}
	}
	return true
}

// CoeffBits returns b such that every coefficient of det(λI − A) other
// than the leading 1 is at most 2^b in magnitude; b is 0 for the zero
// matrix. The coefficient of
// λ^(n−k) is, up to sign, the sum of the k×k principal minors; by
// Hadamard's inequality each is at most the product of its rows'
// Euclidean norms, so the coefficient is at most e_k(r_1, …, r_n), the
// k-th elementary symmetric function of the row norms r_i. The norms
// and the e_k are computed in float64 with every rounded result stepped
// up by one ulp, so rounding can only raise them, and the norms are
// scaled by 2^−E, 2^E above the largest, so that e_k stays below
// C(n, k) instead of overflowing.
func CoeffBits(a *Matrix) int {
	n := a.n
	var norms []float64
	top := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range a.a[i*n : (i+1)*n] {
			if v != 0 {
				x := up(math.Abs(float64(v)))
				s = up(s + up(x*x))
			}
		}
		if s != 0 {
			r := up(math.Sqrt(s))
			norms = append(norms, r)
			top = max(top, r)
		}
	}
	_, scale := math.Frexp(top) // top < 2^scale
	e := make([]float64, len(norms)+1)
	e[0] = 1
	for i, r := range norms {
		x := math.Ldexp(r, -scale) // exact: r ≥ 1, so x ≥ 2^−scale is normal
		for k := i + 1; k >= 1; k-- {
			e[k] = up(e[k] + up(x*e[k-1]))
		}
	}
	b := 0
	for k := 1; k < len(e); k++ {
		_, exp := math.Frexp(e[k]) // e[k] < 2^exp
		b = max(b, exp+k*scale)
	}
	return b
}

// up returns the next float64 above x: a bound on any real number that
// rounds to nearest as x, an underflow to zero included.
func up(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
