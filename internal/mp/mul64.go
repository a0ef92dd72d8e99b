package mp

import "math/bits"

// 64-bit packed kernels for the Fast profile. The paper's substrate
// (and the Schoolbook profile) works on 32-bit limbs with 64-bit
// accumulators — faithful to the era's "mp" — but a modern machine
// multiplies 64-bit words at the same latency, so packing limb pairs
// before a large product quarters the hardware multiply count before
// Karatsuba even starts. The packed value is little-endian []uint64;
// packing and unpacking are O(n) and only worth it above
// fastPackThreshold (32-bit limbs).

// fastPackThreshold is the shorter-operand length (in 32-bit limbs)
// above which natMulFast packs to 64-bit limbs.
const fastPackThreshold = 8

// kar64Threshold is the 64-bit limb count below which mul64To uses the
// schoolbook row loop: 20 limbs = 1280 bits.
const kar64Threshold = 20

// norm64 strips leading zero limbs.
func norm64(x []uint64) []uint64 {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// add64To stores x + y in z, which must hold max(len(x), len(y))+1
// limbs, and returns the canonical sum.
func add64To(z, x, y []uint64) []uint64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	var carry uint64
	for i := range x {
		var yi uint64
		if i < len(y) {
			yi = y[i]
		}
		z[i], carry = bits.Add64(x[i], yi, carry)
	}
	z[len(x)] = carry
	return norm64(z[:len(x)+1])
}

// accumAt64 adds y·2^(64·shift) into z in place; z must absorb the
// carry (an invariant of the callers' product buffers).
func accumAt64(z, y []uint64, shift int) {
	var carry uint64
	for i := 0; i < len(y); i++ {
		z[shift+i], carry = bits.Add64(z[shift+i], y[i], carry)
	}
	for i := shift + len(y); carry != 0; i++ {
		z[i], carry = bits.Add64(z[i], 0, carry)
	}
}

// deductAt64 subtracts y·2^(64·shift) from z in place; the running
// value of z must stay non-negative.
func deductAt64(z, y []uint64, shift int) {
	var borrow uint64
	for i := 0; i < len(y); i++ {
		z[shift+i], borrow = bits.Sub64(z[shift+i], y[i], borrow)
	}
	for i := shift + len(y); borrow != 0; i++ {
		z[i], borrow = bits.Sub64(z[i], 0, borrow)
	}
}

// mul64Basic stores x·y in z, which has exactly len(x)+len(y) limbs:
// the schoolbook row loop over 64-bit limbs.
func mul64Basic(z, x, y []uint64) {
	clear(z)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j] = lo
			carry = hi
		}
		z[i+len(y)] = carry
	}
}

// mul64t returns x·y as a new canonical slice: mul64To on a transient
// product and scratch buffer. Toom-3 and the NTT multiply their parts
// through it.
func mul64t(x, y []uint64, tab tierTable) []uint64 {
	z := make([]uint64, len(x)+len(y))
	mul64To(z, x, y, make([]uint64, mulScratch(max(len(x), len(y)), tab)), tab)
	return norm64(z)
}

// mulScratch returns the scratch, in limbs, that mul64To needs for
// operands of at most n limbs. A Karatsuba level on n limbs keeps the
// two half sums and their product, 4m+4 limbs for m = ⌈n/2⌉, while the
// middle product recurses on at most m+1 limbs; a block decomposition
// keeps one block product, less than the Karatsuba level of its longer
// operand would. Every tier table's kar is large enough (≥ 5) for the
// recursion to shrink.
func mulScratch(n int, tab tierTable) int {
	s := 0
	for n >= tab.kar {
		m := (n + 1) / 2
		s += 4*m + 4
		n = m + 1
	}
	return s
}

// mul64To stores x·y in z, which has exactly len(x)+len(y) limbs,
// dispatching on the tier table: block decomposition for unbalanced
// shapes (the same structure as natMulFast, one word size up), then —
// by the shorter operand's size — the schoolbook row loop, Karatsuba,
// Toom-3, or the three-prime NTT. The row loop, the blocks and
// Karatsuba work in z and in the scratch t (mulScratch limbs); Toom-3
// and the NTT allocate their own. Threading the table as a parameter
// keeps tier selection a pure function of the call (benchmarks compare
// tables directly; no package state), and recursive products re-tier
// on their own, smaller sizes.
func mul64To(z, x, y, t []uint64, tab tierTable) {
	if len(x) < len(y) {
		x, y = y, x
	}
	if len(y) < tab.kar {
		mul64Basic(z, x, y)
		return
	}
	if len(x) > 2*len(y) {
		clear(z)
		b := len(y)
		p, t := t[:2*b], t[2*b:]
		for i := 0; i < len(x); i += b {
			blk := norm64(x[i:min(i+b, len(x))])
			if len(blk) == 0 {
				continue
			}
			pb := p[:len(blk)+b]
			mul64To(pb, blk, y, t, tab)
			accumAt64(z, norm64(pb), i)
		}
		return
	}
	if tab.ntt > 0 && len(y) >= tab.ntt && nttWorthwhile(len(x), len(y)) {
		if r := nttMul64(x, y, tab); r != nil {
			clear(z[copy(z, r):])
			return
		}
	}
	// Toom-3 splits by the longer operand, so a near-2× shape leaves
	// the shorter one's top part almost empty and wastes an evaluation;
	// require ≤4:3 imbalance and leave the rest to Karatsuba.
	if tab.toom3 > 0 && len(y) >= tab.toom3 && 3*len(x) <= 4*len(y) {
		clear(z[copy(z, toom3Mul64(x, y, tab)):])
		return
	}

	// Karatsuba on the split m = ⌈len(x)/2⌉: z0 = x0·y0 lands in
	// z[:2m] and z2 = x1·y1 in z[2m:]; the middle term
	// (x0+x1)(y0+y1) − z0 − z2 is built in the scratch and added at m.
	m := (len(x) + 1) / 2
	x0 := norm64(x[:m])
	x1 := norm64(x[m:])
	var y0, y1 []uint64
	if m < len(y) {
		y0 = norm64(y[:m])
		y1 = norm64(y[m:])
	} else {
		y0 = y // degenerate split: y1 = 0
	}

	l0 := len(x0) + len(y0)
	mul64To(z[:l0], x0, y0, t, tab)
	clear(z[l0 : 2*m])
	if len(x1) > 0 && len(y1) > 0 {
		l2 := 2*m + len(x1) + len(y1)
		mul64To(z[2*m:l2], x1, y1, t, tab)
		clear(z[l2:])
	} else {
		clear(z[2*m:])
	}
	sx := add64To(t[:m+1], x0, x1)
	sy := add64To(t[m+1:2*m+2], y0, y1)
	s := t[2*m+2 : 2*m+2+len(sx)+len(sy)]
	mul64To(s, sx, sy, t[4*m+4:], tab) // z0 + z2 + x0·y1 + x1·y0
	deductAt64(s, norm64(z[:2*m]), 0)
	deductAt64(s, norm64(z[2*m:]), 0)
	accumAt64(z, norm64(s), m)
}
