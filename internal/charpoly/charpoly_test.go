package charpoly

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"realroots/internal/mp"
	"realroots/internal/poly"
)

// A bigMatrix is a dense n×n matrix of big integers, the arithmetic of
// the Faddeev–LeVerrier reference.
type bigMatrix struct {
	n int
	a []*mp.Int // row-major
}

func newBigMatrix(n int) *bigMatrix {
	a := make([]*mp.Int, n*n)
	for i := range a {
		a[i] = new(mp.Int)
	}
	return &bigMatrix{n: n, a: a}
}

// mul returns the matrix product x·y.
func mul(x, y *bigMatrix) *bigMatrix {
	n := x.n
	z := newBigMatrix(n)
	var t mp.Int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := z.a[i*n+j]
			for k := 0; k < n; k++ {
				xe, ye := x.a[i*n+k], y.a[k*n+j]
				if xe.IsZero() || ye.IsZero() {
					continue
				}
				t.Mul(xe, ye)
				acc.Add(acc, &t)
			}
		}
	}
	return z
}

// trace returns tr(m).
func (m *bigMatrix) trace() *mp.Int {
	t := new(mp.Int)
	for i := 0; i < m.n; i++ {
		t.Add(t, m.a[i*m.n+i])
	}
	return t
}

// addScaledIdentity adds c·I to m in place.
func (m *bigMatrix) addScaledIdentity(c *mp.Int) {
	for i := 0; i < m.n; i++ {
		d := m.a[i*m.n+i]
		d.Add(d, c)
	}
}

// cloneMatrix returns a's entries as a bigMatrix.
func cloneMatrix(a *Matrix) *bigMatrix {
	z := newBigMatrix(a.n)
	for i, v := range a.a {
		z.a[i].SetInt64(v)
	}
	return z
}

// faddeevLeVerrier is the reference characteristic polynomial: the
// Faddeev–LeVerrier recurrence over the integers, n matrix products of
// growing big integers, in which every division is exact.
func faddeevLeVerrier(a *Matrix) *poly.Poly {
	n := a.n
	// c[n] = 1; for k = 1..n:
	//   M_k = A·(M_{k-1} + c_{n-k+1}·I)   (with M_0 such that M_1 = A)
	//   c_{n-k} = -tr(M_k)/k.
	c := make([]*mp.Int, n+1)
	c[n] = mp.NewInt(1)
	x, m := cloneMatrix(a), cloneMatrix(a) // m = M_1 = A
	for k := 1; k <= n; k++ {
		if k > 1 {
			m.addScaledIdentity(c[n-k+1])
			m = mul(x, m)
		}
		ck := new(mp.Int).Neg(m.trace())
		c[n-k] = ck.DivExact(ck, mp.NewInt(int64(k)))
	}
	return poly.New(c...)
}

// detCofactor computes det(A) by cofactor expansion — an independent
// O(n!) oracle for small matrices.
func detCofactor(a *Matrix) *mp.Int {
	n := a.n
	if n == 1 {
		return mp.NewInt(a.At(0, 0))
	}
	det := new(mp.Int)
	for j := 0; j < n; j++ {
		if a.At(0, j) == 0 {
			continue
		}
		sub := NewMatrix(n - 1)
		for i := 1; i < n; i++ {
			cj := 0
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				sub.SetInt64(i-1, cj, a.At(i, k))
				cj++
			}
		}
		term := new(mp.Int).Mul(mp.NewInt(a.At(0, j)), detCofactor(sub))
		if j%2 == 1 {
			term.Neg(term)
		}
		det.Add(det, term)
	}
	return det
}

// charPolyOracle computes det(λI - A) by evaluating the determinant at
// n+1 integer points and interpolating via Newton's divided differences
// scaled to integers — here simpler: evaluate det(kI - A) for k=0..n and
// compare against p(k).
func TestCharPolyMatchesDeterminantEvaluations(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(5)
		a := RandomSymmetric(r, n, 4)
		p := CharPoly(a)
		if p.Degree() != n || !p.Lead().IsOne() {
			t.Fatalf("charpoly degree %d lead %s, want monic degree %d", p.Degree(), p.Lead(), n)
		}
		for k := int64(-2); k <= int64(n); k++ {
			// det(kI - A) via cofactor oracle.
			m := NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := -a.At(i, j)
					if i == j {
						v += k
					}
					m.SetInt64(i, j, v)
				}
			}
			want := detCofactor(m)
			got := p.Eval(mp.NewInt(k))
			if got.Cmp(want) != 0 {
				t.Fatalf("p(%d) = %s, want det = %s (n=%d)", k, got, want, n)
			}
		}
	}
}

func TestCharPolyDiagonal(t *testing.T) {
	// Diagonal matrix diag(d1..dn) has char poly ∏(λ - di).
	d := []int64{3, -1, 4, 0}
	a := NewMatrix(4)
	roots := make([]*mp.Int, len(d))
	for i, v := range d {
		a.SetInt64(i, i, v)
		roots[i] = mp.NewInt(v)
	}
	got := CharPoly(a)
	want := poly.FromRoots(roots...)
	if !got.Equal(want) {
		t.Fatalf("charpoly(diag) = %s, want %s", got, want)
	}
}

func TestCharPolyTraceAndDet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := RandomSymmetric(r, n, 5)
		p := CharPoly(a)
		// Coefficient of λ^(n-1) is -tr(A).
		tr := new(mp.Int)
		for i := 0; i < n; i++ {
			tr.Add(tr, mp.NewInt(a.At(i, i)))
		}
		if new(mp.Int).Neg(tr).Cmp(p.Coeff(n-1)) != 0 {
			return false
		}
		// Constant term is (-1)^n det(A).
		det := detCofactor(a)
		if n%2 != 0 {
			det.Neg(det)
		}
		return det.Cmp(p.Coeff(0)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCharPolyDoesNotMutateInput(t *testing.T) {
	a, err := FromRows([][]int64{{1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	CharPoly(a)
	if a.At(0, 0) != 1 || a.At(1, 1) != 3 || a.At(0, 1) != 2 {
		t.Fatal("CharPoly mutated its input")
	}
}

func TestRandomSymmetric01(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := RandomSymmetric01(r, 10)
	if !m.IsSymmetric() {
		t.Fatal("not symmetric")
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			v := m.At(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("entry (%d,%d) = %d", i, j, v)
			}
		}
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := FromRows([][]int64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

// TestDet reads det(A) = (-1)^n·p(0) off the characteristic polynomial.
func TestDet(t *testing.T) {
	for _, c := range []struct {
		rows [][]int64
		det  int64
	}{
		{[][]int64{{2, 1}, {1, 2}}, 3},
		{[][]int64{{0, 1}, {1, 0}}, -1},
		{[][]int64{{5}}, 5},
		{[][]int64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}}, 1}, // a zero pivot in every column
	} {
		a, err := FromRows(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		d := new(mp.Int).Set(CharPoly(a).Coeff(0))
		if a.Dim()%2 != 0 {
			d.Neg(d)
		}
		if got := d.Int64(); got != c.det {
			t.Errorf("det %v = %d, want %d", c.rows, got, c.det)
		}
	}
}

func TestCharPolyIdentity(t *testing.T) {
	n := 6
	a := NewMatrix(n)
	for i := 0; i < n; i++ {
		a.SetInt64(i, i, 1)
	}
	p := CharPoly(a)
	// (λ-1)^6.
	want := poly.FromRoots(mp.NewInt(1), mp.NewInt(1), mp.NewInt(1), mp.NewInt(1), mp.NewInt(1), mp.NewInt(1))
	if !p.Equal(want) {
		t.Fatalf("charpoly(I) = %s", p)
	}
}

// TestCharPolyMatchesFaddeevLeVerrier compares whole polynomials with
// the reference at the sizes of the paper's and the benchmark's inputs.
func TestCharPolyMatchesFaddeevLeVerrier(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name string
		m    *Matrix
	}{
		{"01/n=24", RandomSymmetric01(r, 24)},
		{"01/n=36", RandomSymmetric01(r, 36)},
		{"01/n=44", RandomSymmetric01(r, 44)},
		{"pm1000/n=32", RandomSymmetric(r, 32, 1000)},
	} {
		got, want := CharPoly(c.m), faddeevLeVerrier(c.m)
		if !got.Equal(want) {
			t.Errorf("%s: charpoly differs from Faddeev–LeVerrier", c.name)
		}
		if b := CoeffBits(c.m); got.MaxCoeffBits() > b {
			t.Errorf("%s: a coefficient has %d bits, above the bound 2^%d", c.name, got.MaxCoeffBits(), b)
		}
	}
}

// TestCharPolyClosedFormsAtBound takes the largest entries rootd admits
// at its largest dimension, where the row-norm bound is nearly met: a
// CRT modulus a bit too small would wrap the top coefficients.
func TestCharPolyClosedFormsAtBound(t *testing.T) {
	const n = 64
	diag, full := NewMatrix(n), NewMatrix(n)
	roots := make([]*mp.Int, n)
	for i := 0; i < n; i++ {
		diag.SetInt64(i, i, math.MinInt64)
		roots[i] = mp.NewInt(math.MinInt64)
		for j := 0; j < n; j++ {
			full.SetInt64(i, j, math.MinInt64)
		}
	}
	// diag(−2^63, …) → (λ + 2^63)^64, whose constant term is 2^4032.
	if got, want := CharPoly(diag), poly.FromRoots(roots...); !got.Equal(want) {
		t.Errorf("charpoly(diag(MinInt64)) differs from (λ + 2^63)^64")
	}
	if b := CoeffBits(diag); b < 4032 || b > 4034 {
		t.Errorf("CoeffBits(diag(MinInt64)) = %d, want within 2 bits above 4032", b)
	}
	// −2^63·J has rank one: λ^63·(λ + 64·2^63).
	c := make([]*mp.Int, n+1)
	for i := range c {
		c[i] = new(mp.Int)
	}
	c[n] = mp.NewInt(1)
	c[n-1] = new(mp.Int).Lsh(mp.NewInt(1), 69)
	if got, want := CharPoly(full), poly.New(c...); !got.Equal(want) {
		t.Errorf("charpoly(MinInt64·J) = %s…, want λ^64 + 2^69·λ^63", got.Coeff(n-1))
	}
}

// TestCharPolyConcurrent runs charpolys of different sizes at once; run
// it under -race.
func TestCharPolyConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ms := []*Matrix{
		RandomSymmetric01(r, 5),
		RandomSymmetric(r, 12, 1000),
		randomSymmetricWide(r, 9),
		RandomSymmetric01(r, 20),
	}
	want := make([]*poly.Poly, len(ms))
	for i, m := range ms {
		want[i] = faddeevLeVerrier(m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < len(ms); k++ {
				i := (g + k) % len(ms)
				if !CharPoly(ms[i]).Equal(want[i]) {
					t.Errorf("goroutine %d: matrix %d differs", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCharPolyStop(t *testing.T) {
	a := randomSymmetricWide(rand.New(rand.NewSource(3)), 12)
	primes := len(primesFor(CoeffBits(a) + 2))
	if primes < 10 {
		t.Fatalf("%d primes; the test wants a matrix that needs many", primes)
	}
	calls := 0
	p, err := CharPolyStop(a, func() error { calls++; return nil })
	if err != nil || !p.Equal(faddeevLeVerrier(a)) {
		t.Fatalf("err = %v, or the polynomial differs", err)
	}
	if calls != primes {
		t.Errorf("stop polled %d times, want once per prime (%d)", calls, primes)
	}
	errStop := errors.New("stop")
	calls = 0
	p, err = CharPolyStop(a, func() error {
		if calls++; calls == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || p != nil || calls != 3 {
		t.Errorf("got (%v, %v) after %d polls, want (nil, stop) after 3", p, err, calls)
	}
}

func TestIsPrimeMatchesTrialDivision(t *testing.T) {
	trial := func(n uint64) bool {
		for d := uint64(3); d*d <= n; d += 2 {
			if n%d == 0 {
				return false
			}
		}
		return true
	}
	check := func(n uint64) {
		if got := isPrime(n); got != trial(n) {
			t.Fatalf("isPrime(%d) = %v", n, got)
		}
	}
	for n := uint64(63); n < 20000; n += 2 {
		check(n)
	}
	for n := uint64(1<<31 - 1); n > 1<<31-4000; n -= 2 {
		check(n)
	}
}

func TestPrimesFor(t *testing.T) {
	ps := primesFor(4100)
	q, short := mp.NewInt(1), 0
	for i, p := range ps {
		if p >= 1<<31 || (i > 0 && p >= ps[i-1]) {
			t.Fatalf("primes not descending below 2^31: %v", ps[:i+1])
		}
		short = q.BitLen()
		q.MulInt64(q, int64(p))
	}
	if q.BitLen() < 4100 || short >= 4100 {
		t.Errorf("%d primes: product of %d bits, %d without the last; want the first product of 4100 bits or more", len(ps), q.BitLen(), short)
	}
	if ps[0] != 1<<31-1 {
		t.Errorf("first prime %d, want 2^31-1", ps[0])
	}
}

// FuzzCharPolyVsFaddeevLeVerrier compares whole polynomials with the
// reference on matrices of dimension 1–16, symmetric or not, with
// entries over the whole int64 range: taken from data while it lasts,
// then drawn from seed, with MinInt64, MaxInt64 and 0 drawn often.
func FuzzCharPolyVsFaddeevLeVerrier(f *testing.F) {
	minBytes := binary.LittleEndian.AppendUint64(nil, uint64(1)<<63)
	maxBytes := binary.LittleEndian.AppendUint64(nil, 1<<63-1)
	f.Add(uint8(0), true, int64(1), []byte{})
	f.Add(uint8(4), true, int64(2), []byte{})
	f.Add(uint8(15), false, int64(3), []byte{})
	f.Add(uint8(15), true, int64(4), bytes.Repeat(minBytes, 256))
	f.Add(uint8(7), false, int64(5), bytes.Repeat(maxBytes, 64))
	f.Add(uint8(9), true, int64(6), bytes.Repeat(append(minBytes, maxBytes...), 50))
	f.Fuzz(func(t *testing.T, dim uint8, symmetric bool, seed int64, data []byte) {
		n := 1 + int(dim)%16
		r := rand.New(rand.NewSource(seed))
		entry := func() int64 {
			if len(data) >= 8 {
				v := int64(binary.LittleEndian.Uint64(data))
				data = data[8:]
				return v
			}
			switch r.Intn(6) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			case 2:
				return 0
			case 3:
				return r.Int63n(7) - 3
			default:
				return int64(r.Uint64())
			}
		}
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if symmetric && j < i {
					a.SetInt64(i, j, a.At(j, i))
				} else {
					a.SetInt64(i, j, entry())
				}
			}
		}
		if got, want := CharPoly(a), faddeevLeVerrier(a); !got.Equal(want) {
			t.Fatalf("n=%d symmetric=%v: charpoly %s, want %s", n, symmetric, got, want)
		}
	})
}
