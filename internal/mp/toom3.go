package mp

import "math/bits"

// Toom-3 multiplication tier for the Fast profile. Each operand is cut
// into three parts of k 64-bit limbs (base B = 2^(64k)) and treated as
// a degree-2 polynomial; the product polynomial has degree 4 and is
// recovered from five point evaluations at {0, 1, −1, 2, ∞} — five
// recursive multiplications of one-third-size operands, giving
// O(n^log₃5) ≈ O(n^1.465) against Karatsuba's O(n^log₂3) ≈
// O(n^1.585). The
// evaluation at −1 makes intermediates signed, so the interpolation
// runs on sval, a signed-magnitude wrapper; the 2-point brings in an
// exact division by 3, done limbwise with the inverse of 3 mod 2^64.
//
// Interpolation (vᵢ = product evaluated at i, cᵢ = product polynomial
// coefficients):
//
//	c0 = v0
//	c4 = v∞
//	t2 = (v1 − v−1)/2            = c1 + c3
//	c2 = (v1 − c0 − c4) − t2
//	t3 = (v2 − c0 − 4c2 − 16c4)/2 = c1 + 4c3
//	c3 = (t3 − t2)/3
//	c1 = t2 − c3
//
// Both halvings and the division by 3 are exact by construction; every
// cᵢ is non-negative because they are coefficients of a product of
// non-negative polynomials.

// toom64Threshold is the shorter-operand length, in 64-bit packed
// limbs, at which mul64t switches from Karatsuba to Toom-3 for
// quasi-balanced shapes. Measured on this machine (balanced random
// operands, best of 50): Toom-3 wins 21% at 512 limbs (212µs vs
// 268µs), 12% at 768, ties at 1024, and wins 9–13% from 1536 through
// 3072. Below 512 limbs the wider evaluations and signed bookkeeping
// eat the asymptotic gain. Lopsided shapes never benefit — at 1024×768
// Toom-3 ran 54% slower than Karatsuba — hence mul64t's 4:3 balance
// gate on this tier.
const toom64Threshold = 512

// inv3mod64 is the multiplicative inverse of 3 modulo 2^64
// (3·inv3mod64 ≡ 1), used for exact limbwise division by 3.
const inv3mod64 = 0xAAAAAAAAAAAAAAAB

// sval is a signed multiprecision value: a normalized little-endian
// magnitude plus a sign. The zero value is 0. Only what the Toom-3
// interpolation needs is implemented.
type sval struct {
	neg bool
	m   []uint64
}

func (a sval) isZero() bool { return len(a.m) == 0 }

// add64 returns x + y as a new slice.
func add64(x, y []uint64) []uint64 {
	return add64To(make([]uint64, max(len(x), len(y))+1), x, y)
}

// sub64 returns x − y for normalized x ≥ y (cmp64 lives in div64.go).
func sub64(x, y []uint64) []uint64 {
	z := make([]uint64, len(x))
	var borrow uint64
	for i := range x {
		var yi uint64
		if i < len(y) {
			yi = y[i]
		}
		z[i], borrow = bits.Sub64(x[i], yi, borrow)
	}
	if borrow != 0 {
		panic("mp: sub64 underflow")
	}
	return norm64(z)
}

// shlBits64 returns x << k for 0 < k < 64.
func shlBits64(x []uint64, k uint) []uint64 {
	if len(x) == 0 {
		return x
	}
	z := make([]uint64, len(x)+1)
	var carry uint64
	for i, v := range x {
		z[i] = v<<k | carry
		carry = v >> (64 - k)
	}
	z[len(x)] = carry
	return norm64(z)
}

func svAdd(a, b sval) sval {
	if a.neg == b.neg {
		return sval{a.neg, add64(a.m, b.m)}
	}
	switch cmp64(a.m, b.m) {
	case 1:
		return sval{a.neg, sub64(a.m, b.m)}
	case -1:
		return sval{b.neg, sub64(b.m, a.m)}
	}
	return sval{}
}

func svSub(a, b sval) sval { return svAdd(a, sval{!b.neg, b.m}) }

func svMul(a, b sval, tab tierTable) sval {
	if a.isZero() || b.isZero() {
		return sval{}
	}
	return sval{a.neg != b.neg, mul64t(a.m, b.m, tab)}
}

// svShl returns a·2^k for small k.
func svShl(a sval, k uint) sval { return sval{a.neg, shlBits64(a.m, k)} }

// svHalf halves an exactly-even value.
func svHalf(a sval) sval {
	m := a.m
	if len(m) == 0 {
		return a
	}
	if m[0]&1 != 0 {
		panic("mp: toom3 halving an odd value")
	}
	z := make([]uint64, len(m))
	for i := range m {
		z[i] = m[i] >> 1
		if i+1 < len(m) {
			z[i] |= m[i+1] << 63
		}
	}
	return sval{a.neg, norm64(z)}
}

// svThird divides an exact multiple of 3 by 3, limbwise: each quotient
// limb is cur·3⁻¹ mod 2^64, and the high half of quotient·3 is the
// borrow into the next limb. Exactness is an interpolation invariant.
func svThird(a sval) sval {
	m := a.m
	z := make([]uint64, len(m))
	var borrow uint64
	for i, v := range m {
		cur, b1 := bits.Sub64(v, borrow, 0)
		q := cur * inv3mod64
		z[i] = q
		hi, _ := bits.Mul64(q, 3)
		borrow = hi + b1
	}
	if borrow != 0 {
		panic("mp: toom3 inexact division by 3")
	}
	return sval{a.neg, norm64(z)}
}

// svPart slices limbs [lo, hi) of v as a non-negative sval.
func svPart(v []uint64, lo, hi int) sval {
	if lo >= len(v) {
		return sval{}
	}
	if hi > len(v) {
		hi = len(v)
	}
	return sval{false, norm64(v[lo:hi])}
}

// toom3Mul64 multiplies quasi-balanced packed operands (len(y) ≤
// len(x) ≤ 2·len(y)) by the Toom-3 scheme; recursive products go back
// through mul64t so they re-tier on their own size.
func toom3Mul64(x, y []uint64, tab tierTable) []uint64 {
	k := (len(x) + 2) / 3
	x0, x1, x2 := svPart(x, 0, k), svPart(x, k, 2*k), svPart(x, 2*k, len(x))
	y0, y1, y2 := svPart(y, 0, k), svPart(y, k, 2*k), svPart(y, 2*k, len(y))

	// Evaluate both operands at 1, −1 and 2.
	px := svAdd(x0, x2)
	py := svAdd(y0, y2)
	ex1, ey1 := svAdd(px, x1), svAdd(py, y1)
	exm1, eym1 := svSub(px, x1), svSub(py, y1)
	ex2 := svAdd(svShl(svAdd(svShl(x2, 1), x1), 1), x0) // 4x2 + 2x1 + x0
	ey2 := svAdd(svShl(svAdd(svShl(y2, 1), y1), 1), y0)

	v0 := svMul(x0, y0, tab)
	v1 := svMul(ex1, ey1, tab)
	vm1 := svMul(exm1, eym1, tab)
	v2 := svMul(ex2, ey2, tab)
	vinf := svMul(x2, y2, tab)

	t2 := svHalf(svSub(v1, vm1))
	c2 := svSub(svSub(v1, svAdd(v0, vinf)), t2)
	t3 := svHalf(svSub(svSub(v2, v0), svAdd(svShl(c2, 2), svShl(vinf, 4))))
	c3 := svThird(svSub(t3, t2))
	c1 := svSub(t2, c3)

	z := make([]uint64, len(x)+len(y))
	for i, c := range [5]sval{v0, c1, c2, c3, vinf} {
		if c.isZero() {
			continue
		}
		if c.neg {
			panic("mp: toom3 negative coefficient")
		}
		accumAt64(z, c.m, i*k)
	}
	return norm64(z)
}
