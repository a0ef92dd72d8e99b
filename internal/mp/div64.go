package mp

import "math/bits"

// 64-bit packed Knuth division for the Fast profile: the base-case
// divider under the Burnikel–Ziegler recursion (div.go) and the whole
// division when the quotient is too short for the recursion to pay.
// Identical mathematics to quoRem32 — Algorithm D — but over packed
// limbs, quartering the hardware multiply/divide count, and in the
// workspace's buffers. Only reachable from divFast; the Schoolbook
// profile never packs.

// shl64To returns x << s for 0 ≤ s < 64 in len(x)+1 limbs, the top one
// holding the carry, stored in z's storage, which grows only when its
// capacity is short; z must not overlap x.
func shl64To(z, x []uint64, s uint) []uint64 {
	z = grow64(z, len(x)+1)
	var carry uint64
	for i, v := range x {
		z[i] = v<<s | carry
		// s == 0 makes the complementary shift 64, which Go defines as
		// producing 0 — exactly the no-carry case.
		carry = v >> (64 - s)
	}
	z[len(x)] = carry
	return z
}

// quoRem64 divides u by v (canonical, v non-empty) by Knuth TAOCP vol.
// 2, Algorithm 4.3.1 D over 64-bit limbs. The canonical quotient and
// remainder lie in the workspace (the remainder is u itself when
// u < v) and are valid until its next use.
func (w *workspace) quoRem64(u, v []uint64) (q, r []uint64) {
	n := len(v)
	if len(u) < n || (len(u) == n && cmp64(u, v) < 0) {
		return nil, u
	}
	if n == 1 {
		q = grow64(w.q, len(u))
		var rem uint64
		for i := len(u) - 1; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, u[i], v[0])
		}
		w.q, w.un = q, append(w.un[:0], rem)
		return norm64(q), norm64(w.un)
	}

	// D1: normalize so the divisor's top bit is set; the shift cannot
	// overflow v, and u gains a high limb, possibly zero.
	s := uint(bits.LeadingZeros64(v[n-1]))
	w.vn = shl64To(w.vn, v, s)
	w.un = shl64To(w.un, u, s)
	vn, un := w.vn[:n], w.un
	m := len(un) - 1 - n

	w.q = grow64(w.q, m+1)
	q = w.q
	for j := m; j >= 0; j-- {
		// D3: estimate the quotient digit from the top limbs.
		qhat := ^uint64(0)
		if un[j+n] != vn[n-1] {
			var rhat uint64
			qhat, rhat = bits.Div64(un[j+n], un[j+n-1], vn[n-1])
			for {
				hi, lo := bits.Mul64(qhat, vn[n-2])
				if hi < rhat || (hi == rhat && lo <= un[j+n-2]) {
					break
				}
				qhat--
				rhat += vn[n-1]
				if rhat < vn[n-1] { // rhat overflowed: estimate settled
					break
				}
			}
		}
		// D4: multiply and subtract.
		var borrow, mulCarry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, vn[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			hi += c
			un[j+i], borrow = bits.Sub64(un[j+i], lo, borrow)
			mulCarry = hi
		}
		un[j+n], borrow = bits.Sub64(un[j+n], mulCarry, borrow)
		if borrow != 0 {
			// D6: qhat was one too large; add the divisor back.
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				un[j+i], carry = bits.Add64(un[j+i], vn[i], carry)
			}
			un[j+n] += carry
		}
		q[j] = qhat
	}
	return norm64(q), shrInPlace64(norm64(un[:n]), s)
}

// cmp64 compares canonical packed values.
func cmp64(x, y []uint64) int {
	if len(x) != len(y) {
		if len(x) < len(y) {
			return -1
		}
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// knuth64 returns u / v as new nats by packed Algorithm D in the
// workspace.
func (w *workspace) knuth64(u, v nat) (q, r nat) {
	w.x, w.y = pack(w.x, u), pack(w.y, v)
	q64, r64 := w.quoRem64(w.x, w.y)
	return unpack(q64), unpack(r64)
}
