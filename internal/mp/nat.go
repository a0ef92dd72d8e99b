// Package mp implements arbitrary-precision integer arithmetic from
// scratch, mirroring the UNIX "mp" package used by Narendran & Tiwari's
// original implementation (paper §3.3): addition and subtraction run in
// linear time and multiplication and division in quadratic time in the
// operand sizes. This matches the cost model that the paper's analysis
// (§4) assumes, which is why the library does not use math/big in the
// production path (math/big is used only as a test oracle).
//
// A subquadratic arithmetic path (block-decomposed Karatsuba
// multiplication, Burnikel–Ziegler division) is available through the
// Profile type; Schoolbook, the zero value, is the default.
//
// DotDiv computes (Σ ±xᵢ·yᵢ)/d, the step the remainder sequence and the
// tree products repeat, under either profile in a workspace drawn from
// a per-computation Scratch list, so that it allocates only its result;
// MulProfile and QuoRemProfile run the same kernels on a transient
// workspace.
package mp

import "math/bits"

// A nat is an unsigned multiprecision integer stored as a little-endian
// slice of 32-bit limbs: x = Σ x[i]·2^(32i). The canonical form has no
// leading (high-order) zero limbs; the canonical zero is the empty slice.
type nat []uint32

const (
	limbBits = 32
	limbBase = uint64(1) << limbBits
	limbMask = limbBase - 1
)

// norm returns x with high-order zero limbs removed.
func (x nat) norm() nat {
	i := len(x)
	for i > 0 && x[i-1] == 0 {
		i--
	}
	return x[:i]
}

// natCmp compares |x| and |y|, returning -1, 0, or +1.
func natCmp(x, y nat) int {
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// natAdd returns x + y.
func natAdd(x, y nat) nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	z := make(nat, len(x)+1)
	var carry uint64
	for i := range x {
		s := uint64(x[i]) + carry
		if i < len(y) {
			s += uint64(y[i])
		}
		z[i] = uint32(s)
		carry = s >> limbBits
	}
	z[len(x)] = uint32(carry)
	return z.norm()
}

// natSub returns x - y; it requires x >= y.
func natSub(x, y nat) nat {
	if natCmp(x, y) < 0 {
		panic("mp: natSub underflow")
	}
	z := make(nat, len(x))
	var borrow uint64
	for i := range x {
		d := uint64(x[i]) - borrow
		if i < len(y) {
			d -= uint64(y[i])
		}
		z[i] = uint32(d)
		// d underflowed iff its high word is non-zero.
		borrow = d >> 63
	}
	if borrow != 0 {
		panic("mp: natSub borrow out")
	}
	return z.norm()
}

// natMulBasic returns x*y using the schoolbook O(len(x)·len(y)) method.
func natMulBasic(x, y nat) nat { return natMulBasicTo(nil, x, y) }

// natMulBasicTo returns x*y by the schoolbook row loop, stored in z's
// storage, which grows only when its capacity is short; z must not
// overlap x or y.
func natMulBasicTo(z, x, y nat) nat {
	if len(x) == 0 || len(y) == 0 {
		return z[:0]
	}
	z = grow(z, len(x)+len(y))
	clear(z)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		xv := uint64(xi)
		for j, yj := range y {
			t := uint64(z[i+j]) + xv*uint64(yj) + carry
			z[i+j] = uint32(t)
			carry = t >> limbBits
		}
		z[i+len(y)] = uint32(carry)
	}
	return z.norm()
}

// natShl returns x << s.
func natShl(x nat, s uint) nat { return natShlTo(nil, x, s) }

// natShlTo returns x << s, stored in z when z has the capacity; z must
// not overlap x.
func natShlTo(z, x nat, s uint) nat {
	if len(x) == 0 {
		return z[:0]
	}
	limbShift := int(s / limbBits)
	bitShift := s % limbBits
	z = grow(z[:0], len(x)+limbShift+1)
	clear(z[:limbShift])
	if bitShift == 0 {
		copy(z[limbShift:], x)
		z[len(x)+limbShift] = 0
	} else {
		var carry uint32
		for i, xi := range x {
			z[i+limbShift] = xi<<bitShift | carry
			carry = uint32(uint64(xi) >> (limbBits - bitShift))
		}
		z[len(x)+limbShift] = carry
	}
	return z.norm()
}

// natShr returns x >> s.
func natShr(x nat, s uint) nat { return natShrTo(nil, x, s) }

// natShrTo returns x >> s, stored in z when z has the capacity; z may
// be x itself (the limbs are read before they are written).
func natShrTo(z, x nat, s uint) nat {
	limbShift := int(s / limbBits)
	bitShift := s % limbBits
	if limbShift >= len(x) {
		return z[:0]
	}
	z = grow(z[:0], len(x)-limbShift)
	if bitShift == 0 {
		copy(z, x[limbShift:])
	} else {
		for i := range z {
			v := uint64(x[i+limbShift]) >> bitShift
			if i+limbShift+1 < len(x) {
				v |= uint64(x[i+limbShift+1]) << (limbBits - bitShift)
			}
			z[i] = uint32(v)
		}
	}
	return z.norm()
}

// natBitLen returns the length of x in bits; natBitLen(0) == 0.
func natBitLen(x nat) int {
	if len(x) == 0 {
		return 0
	}
	return (len(x)-1)*limbBits + bits.Len32(x[len(x)-1])
}

// natBit returns bit i of x.
func natBit(x nat, i uint) uint {
	limb := int(i / limbBits)
	if limb >= len(x) {
		return 0
	}
	return uint(x[limb]>>(i%limbBits)) & 1
}

// natTrailingZeros returns the number of trailing zero bits of x != 0.
func natTrailingZeros(x nat) uint {
	for i, xi := range x {
		if xi != 0 {
			return uint(i)*limbBits + uint(bits.TrailingZeros32(xi))
		}
	}
	panic("mp: natTrailingZeros of zero")
}

// natDivSmall divides u by the single limb d, returning quotient and
// remainder.
func natDivSmall(u nat, d uint32) (q nat, r uint32) {
	if d == 0 {
		panic("mp: division by zero")
	}
	q = make(nat, len(u))
	var rem uint64
	dd := uint64(d)
	for i := len(u) - 1; i >= 0; i-- {
		cur := rem<<limbBits | uint64(u[i])
		q[i] = uint32(cur / dd)
		rem = cur % dd
	}
	return q.norm(), uint32(rem)
}

// quoRem32 divides u by v (v != 0) using Knuth's Algorithm D (TAOCP
// vol. 2, §4.3.1), quadratic in the operand sizes, matching the "mp"
// package the paper's implementation used. The quotient is a new nat;
// the remainder lies in the workspace (or is u itself) and is valid
// until the workspace's next use.
func (w *workspace) quoRem32(u, v nat) (q, r nat) {
	n := len(v)
	if n == 0 {
		panic("mp: division by zero")
	}
	if natCmp(u, v) < 0 {
		return nil, u
	}
	if n == 1 {
		q, rr := natDivSmall(u, v[0])
		w.un32 = append(w.un32[:0], rr)
		return q, w.un32.norm()
	}

	// D1: normalize so that the top limb of v has its high bit set; u
	// gains a high limb, possibly zero, for the first step.
	s := uint(bits.LeadingZeros32(v[n-1]))
	w.vn32 = shlLimbs(w.vn32, v, s)
	w.un32 = shlLimbs(w.un32, u, s)
	vn, un := w.vn32[:n], w.un32
	m := len(un) - n - 1

	q = make(nat, m+1)
	vn1 := uint64(vn[n-1])
	vn2 := uint64(vn[n-2])

	for j := m; j >= 0; j-- {
		// D3: estimate qhat.
		u2 := uint64(un[j+n])<<limbBits | uint64(un[j+n-1])
		qhat := u2 / vn1
		rhat := u2 - qhat*vn1
		for qhat >= limbBase || qhat*vn2 > rhat<<limbBits+uint64(un[j+n-2]) {
			qhat--
			rhat += vn1
			if rhat >= limbBase {
				break
			}
		}

		// D4: multiply and subtract un[j..j+n] -= qhat*vn.
		var borrow int64
		var mulCarry uint64
		for i := 0; i <= n; i++ {
			var p uint64
			if i < n {
				t := qhat*uint64(vn[i]) + mulCarry
				mulCarry = t >> limbBits
				p = t & limbMask
			} else {
				p = mulCarry
			}
			t := int64(uint64(un[i+j])) - int64(p) + borrow
			un[i+j] = uint32(uint64(t) & limbMask)
			borrow = t >> limbBits // arithmetic shift: 0 or -1
		}

		// D5/D6: the (rare) add-back correction.
		if borrow != 0 {
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				t := uint64(un[i+j]) + uint64(vn[i]) + c
				un[i+j] = uint32(t)
				c = t >> limbBits
			}
			un[j+n] = uint32(uint64(un[j+n]) + c)
		}
		q[j] = uint32(qhat)
	}
	return q.norm(), natShrTo(un[:n], un[:n].norm(), s)
}

// shlLimbs returns x << s for s < limbBits in len(x)+1 limbs, the top
// one holding the carry, stored in z's storage, which grows only when
// its capacity is short; z must not overlap x.
func shlLimbs(z, x nat, s uint) nat {
	z = grow(z, len(x)+1)
	var carry uint32
	for i, xi := range x {
		z[i] = xi<<s | carry
		// s == 0 makes the complementary shift 32, which produces 0 for
		// a 64-bit operand — exactly the no-carry case.
		carry = uint32(uint64(xi) >> (limbBits - s))
	}
	z[len(x)] = carry
	return z
}
