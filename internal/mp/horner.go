package mp

// Scaled Horner evaluation (paper §4.3) spends nearly all of its time
// in one step, v ← v·a + c·2^sh: a running value that grows by about
// a's width every step, times a short point numerator a, plus a
// coefficient shifted into place. Done with Int operations, each step
// allocates a product, a zero-padded copy of c·2^sh and a sum. A Horner
// keeps v in one buffer sized once for the final width and performs
// the step in place, so an evaluation allocates nothing after the
// buffer exists. The same shifted add is what dyadic brackets need to
// align two numerators without copying them (AddLsh, SubLsh, CmpLsh).

// A Horner is a signed accumulator over the package's 32-bit limbs,
// updated in place by Step. It is not safe for concurrent use; the zero
// value holds 0.
type Horner struct {
	neg bool
	abs nat // the value; its capacity is the accumulator's buffer
	win nat // Step's carry window, one limb per limb of the multiplier
}

// Reserve sizes the buffer for values of up to width bits, so that Set
// and Step never reallocate while their operands and results stay
// within that width. It keeps the current value. A buffer that
// must grow at least doubles, so an accumulator reused at rising
// precision reallocates only a logarithmic number of times.
func (h *Horner) Reserve(width int) {
	// Step's product needs one limb more than the result's own limbs,
	// and the shifted add one more for its carry.
	if n := width/limbBits + 3; cap(h.abs) < n {
		buf := make(nat, len(h.abs), max(n, 2*cap(h.abs)))
		copy(buf, h.abs)
		h.abs = buf
	}
}

// Set sets the accumulator to x.
func (h *Horner) Set(x *Int) {
	h.neg = x.neg
	h.abs = append(h.abs[:0], x.abs...)
}

// Sign returns -1, 0 or +1 according to the sign of the accumulator.
func (h *Horner) Sign() int {
	if len(h.abs) == 0 {
		return 0
	}
	if h.neg {
		return -1
	}
	return 1
}

// BitLen returns the length of the accumulator's magnitude in bits.
func (h *Horner) BitLen() int { return natBitLen(h.abs) }

// View sets z to the accumulator's value and returns z. z shares the
// accumulator's buffer: it is valid, and must not be modified, until
// the accumulator's next Set or Step.
func (h *Horner) View(z *Int) *Int {
	z.neg, z.abs = h.neg, h.abs
	return z
}

// Step sets the accumulator to v·a + c·2^sh in place. The product is
// the schoolbook row loop of natMulBasic — one row of 32×32-bit limb
// products per limb of v — run bottom-up so that each limb of v is read
// before it is overwritten; then c is added or subtracted at limb
// offset sh/32 with the bit shift applied as it is read. When c's sign
// differs and |c·2^sh| > |v·a|, the difference is negated where it lies
// and the sign flips. No temporary is built.
func (h *Horner) Step(a, c *Int, sh uint) {
	n, y := len(h.abs), a.abs
	if n == 0 || len(y) == 0 {
		h.neg, h.abs = false, h.abs[:0]
	} else {
		z := grow(h.abs, n+len(y))
		clear(z[n:])
		if len(y) == 1 {
			yv, carry := uint64(y[0]), uint64(0)
			for i := 0; i < n; i++ {
				t := uint64(z[i])*yv + carry
				z[i] = uint32(t)
				carry = t >> limbBits
			}
			z[n] = uint32(carry)
		} else {
			// The part of row i that lands above z[i], where v's limbs
			// are still unread, waits in a window of len(a) limbs that
			// row i+1 adds to; z[i] is final once row i is done.
			win := grow(h.win, len(y))
			clear(win)
			for i := 0; i < n; i++ {
				xi := uint64(z[i])
				t := xi*uint64(y[0]) + uint64(win[0])
				z[i] = uint32(t)
				carry := t >> limbBits
				for j := 1; j < len(y); j++ {
					t = xi*uint64(y[j]) + uint64(win[j]) + carry
					win[j-1] = uint32(t)
					carry = t >> limbBits
				}
				win[len(y)-1] = uint32(carry)
			}
			copy(z[n:], win)
			h.win = win
		}
		h.neg, h.abs = h.neg != a.neg, z.norm()
	}
	h.neg, h.abs = accShifted(h.neg, h.abs, c.neg, c.abs, sh)
}

// grow returns z[:n], reallocating (and copying z) only when z's
// capacity is below n. A buffer that must grow at least doubles (see
// grow64). Limbs past len(z) are not cleared.
func grow(z nat, n int) nat {
	if cap(z) < n {
		buf := make(nat, n, max(n, 2*cap(z)))
		copy(buf, z)
		return buf
	}
	return z[:n]
}

// shiftedLimb returns limb i of c·2^b for a bit shift b < limbBits.
func shiftedLimb(c nat, i int, b uint) uint32 {
	var v uint32
	if i < len(c) {
		v = c[i] << b
	}
	if b != 0 && i > 0 && i <= len(c) {
		v |= c[i-1] >> (limbBits - b)
	}
	return v
}

// accShifted returns the signed sum (zneg, z) + (cneg, c·2^sh), built in
// z's storage, which grows only when its capacity cannot hold the sum.
// c is read limb by limb with the shift applied, so no shifted copy of
// it exists. A subtraction that borrows out of the top limb means
// |c·2^sh| > |z|: the two's complement left behind is negated in place
// and the sign flips.
func accShifted(zneg bool, z nat, cneg bool, c nat, sh uint) (bool, nat) {
	if len(c) == 0 {
		return zneg, z
	}
	off, b := int(sh/limbBits), sh%limbBits
	cl := len(c)
	if b != 0 {
		cl++
	}
	n := len(z)
	if n == 0 {
		zneg = cneg // 0 + c: the add below then yields c·2^sh
	}
	w := max(n, off+cl) + 1
	z = grow(z, w)
	clear(z[n:])
	if zneg == cneg {
		var carry uint64
		for i := 0; i < cl; i++ {
			t := uint64(z[off+i]) + uint64(shiftedLimb(c, i, b)) + carry
			z[off+i] = uint32(t)
			carry = t >> limbBits
		}
		for k := off + cl; carry != 0; k++ {
			t := uint64(z[k]) + carry
			z[k] = uint32(t)
			carry = t >> limbBits
		}
		return zneg, z.norm()
	}
	var borrow uint64
	for i := 0; i < cl; i++ {
		d := uint64(z[off+i]) - uint64(shiftedLimb(c, i, b)) - borrow
		z[off+i] = uint32(d)
		borrow = d >> 63
	}
	for k := off + cl; borrow != 0 && k < w; k++ {
		d := uint64(z[k]) - borrow
		z[k] = uint32(d)
		borrow = d >> 63
	}
	if borrow != 0 {
		// z holds 2^(32w) − (c·2^sh − |z|): negate it.
		i := 0
		for z[i] == 0 {
			i++
		}
		z[i] = -z[i]
		for i++; i < w; i++ {
			z[i] = ^z[i]
		}
		zneg = !zneg
	}
	z = z.norm()
	return zneg && len(z) > 0, z
}

// natCmpShl compares x·2^s with y, reading x's limbs shifted as it goes.
func natCmpShl(x nat, s uint, y nat) int {
	if len(x) == 0 {
		if len(y) == 0 {
			return 0
		}
		return -1
	}
	if lx, ly := natBitLen(x)+int(s), natBitLen(y); lx != ly {
		if lx < ly {
			return -1
		}
		return 1
	}
	// Equal bit lengths: x·2^s has exactly len(y) limbs.
	q, b := int(s/limbBits), s%limbBits
	for i := len(y) - 1; i >= 0; i-- {
		var xi uint32
		if i >= q {
			xi = shiftedLimb(x, i-q, b)
		}
		if xi != y[i] {
			if xi < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
