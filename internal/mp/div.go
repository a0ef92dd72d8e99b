package mp

import "math/bits"

// Divide-and-conquer division for the Fast profile, after Burnikel &
// Ziegler, "Fast Recursive Division" (MPI-I-98-1-022). The divisor is
// normalized (top bit set) and limb-padded so its length is
// base·2^L with base ≥ fastDivThreshold; the dividend is then processed
// top-down in divisor-sized blocks, each block division recursing on
// operand halves (div2n1n / div3n2n) with the half-sized partial
// quotients reassembled by fast multiplication. Cost is O(M(n)·log n)
// for the fast multiplication M, versus the quadratic Knuth Algorithm D
// in nat.go that the Schoolbook profile uses.

// fastDivThreshold is the divisor limb count below which division falls
// back to Knuth Algorithm D. Also used for the quotient length: when
// the quotient has fewer limbs than this, Algorithm D's O(qlen·n) cost
// is already modest. It is also the recursion's leaf size: blocks below
// 2·fastDivThreshold limbs go to the packed Algorithm D. Measured with
// BenchmarkDivShapes on 2n-by-n-bit exact divisions (medians of three
// per sweep, two sweeps, 2-vCPU Xeon): with 40-limb leaves the
// recursion lost to packed Algorithm D up to n = 16k bits (8k: 77 vs
// 58 µs). With 256-limb (8192-bit) leaves it is even at the first 2:1
// shape it takes, n = 16k bits (186–224 vs 205–222 µs), and wins from
// n = 20k bits (241–263 vs 351–353 µs) to n = 128k bits (5.3–5.7 vs
// 13.8–14.2 ms). 128-limb leaves would take n = 8k bits, where they
// lose (65 vs 55 µs).
const fastDivThreshold = 256

// divFast divides the canonical packed u by v (v != 0): Knuth's
// Algorithm D in the workspace while the divisor or the quotient is
// short of fastDivThreshold limbs — on 32-bit limbs when either operand
// is too short to pack — and the Burnikel–Ziegler recursion past it.
// The quotient is a new nat; the remainder lies in the workspace, valid
// until its next use, except past the threshold, where it is new too.
// The workspace's x and y buffers must not hold u.
func (w *workspace) divFast(u []uint64, v nat) (q, r nat) {
	n, lu := len(v), len32(u)
	switch {
	case n < fastPackThreshold || lu < fastPackThreshold:
		w.p32 = unpackTo(w.p32, u)
		return w.quoRem32(w.p32, v)
	case n < fastDivThreshold || lu-n < fastDivThreshold:
		w.y = pack(w.y, v)
		q64, r64 := w.quoRem64(u, w.y)
		w.p32 = unpackTo(w.p32, r64)
		return unpack(q64), w.p32
	}
	return w.burnikelZiegler(unpack(u), v)
}

// burnikelZiegler returns u / v as new nats by the recursion, whose
// blocks below 2·fastDivThreshold limbs go to packed Algorithm D.
func (w *workspace) burnikelZiegler(uIn, vIn nat) (q, r nat) {
	n := len(vIn)
	// Pad v to n2 = base·2^L limbs (base ≥ fastDivThreshold) with its
	// top bit set, scaling u by the same power of two so the quotient
	// is unchanged and the remainder is scaled by 2^sigma.
	L := 0
	for (n >> (L + 1)) >= fastDivThreshold {
		L++
	}
	n2 := ((n + (1 << L) - 1) >> L) << L
	sigma := uint((n2-n)*limbBits + bits.LeadingZeros32(vIn[n-1]))
	v := natShl(vIn, sigma)
	u := natShl(uIn, sigma)

	// Long division with β^n2-sized digits. The top block is < β^n2 ≤
	// 2v (v has its top bit set), so its quotient digit is 0 or 1; each
	// later digit comes from a 2-by-1 block division with rem < v.
	t := (len(u) + n2 - 1) / n2
	q = make(nat, t*n2)
	rem := nat(u[(t-1)*n2:]).norm()
	if natCmp(rem, v) >= 0 {
		rem = natSub(rem, v)
		q[(t-1)*n2] = 1
	}
	for i := t - 2; i >= 0; i-- {
		blk := nat(u[i*n2 : (i+1)*n2]).norm()
		qi, ri := w.bzDiv2n1n(natJoin(rem, blk, n2), v, n2)
		copy(q[i*n2:], qi)
		rem = ri
	}
	return q.norm(), natShr(rem, sigma)
}

// bzDiv2n1n divides a by the n-limb divisor b, where b has its top bit
// set and a < b·β^n (so the quotient fits in n limbs and r < b).
func (w *workspace) bzDiv2n1n(a, b nat, n int) (q, r nat) {
	if n%2 != 0 || n < 2*fastDivThreshold {
		return w.knuth64(a, b)
	}
	h := n / 2
	// a = aHi·β^h + aLo; aHi < b·β^h holds because a < b·β^(2h).
	aHi := natBlockAt(a, h, len(a))
	aLo := natBlockAt(a, 0, h)
	q1, r1 := w.bzDiv3n2n(aHi, b, h)
	q0, r := w.bzDiv3n2n(natJoin(r1, aLo, h), b, h)
	return natJoin(q1, q0, h), r
}

// bzDiv3n2n divides the (at most 3h-limb) a by the 2h-limb divisor b,
// where b has its top bit set and a < b·β^h (so the quotient fits in h
// limbs and r < b).
func (w *workspace) bzDiv3n2n(a, b nat, h int) (q, r nat) {
	b1 := nat(b[h:]).norm() // top bit set, h limbs
	b0 := natBlockAt(b, 0, h)
	a2 := natBlockAt(a, 2*h, len(a))
	a1 := natBlockAt(a, h, 2*h)
	a0 := natBlockAt(a, 0, h)

	// Estimate the quotient digit from the top 2h limbs and b1. The
	// precondition gives a2 ≤ b1; on equality the true digit would need
	// β^h, so saturate at β^h−1 and let the correction loop settle it.
	var qh, c nat
	if natCmp(a2, b1) < 0 {
		qh, c = w.bzDiv2n1n(natJoin(a2, a1, h), b1, h)
	} else {
		qh = make(nat, h)
		for i := range qh {
			qh[i] = ^uint32(0)
		}
		// c = a2·β^h + a1 − (β^h−1)·b1 = a1 + b1 when a2 == b1.
		c = natAdd(a1, b1)
	}

	// r = c·β^h + a0 − qh·b0, correcting the (≤2) overestimates of qh
	// by adding back b.
	d := natMulFast(qh, b0)
	rr := natJoin(c, a0, h)
	for natCmp(rr, d) < 0 {
		qh = natSub(qh, nat{1})
		rr = natAdd(rr, b)
	}
	return qh, natSub(rr, d)
}

// natBlockAt returns limbs [from, to) of x as a canonical nat.
func natBlockAt(x nat, from, to int) nat {
	if from >= len(x) {
		return nil
	}
	if to > len(x) {
		to = len(x)
	}
	return nat(x[from:to]).norm()
}

// natJoin returns hi·β^shift + lo; lo must have at most shift limbs.
func natJoin(hi, lo nat, shift int) nat {
	if len(hi) == 0 {
		return lo
	}
	z := make(nat, shift+len(hi))
	copy(z, lo)
	copy(z[shift:], hi)
	return z.norm()
}
