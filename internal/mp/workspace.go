package mp

import (
	"fmt"
	"math/bits"
	"sync"
)

// The remainder recurrence (paper §3.1, Eqs. 15–18) and the tree
// products (§3.2, Eq. 9) repeat one operation: a sum of products
// followed by an exact division. Built from Int operations, each Fast
// term would allocate two packed operands, a product and its unpacked
// copy, and each partial sum a fresh Int. DotDiv runs the whole
// operation in a workspace: the packed operands, the product,
// Karatsuba's scratch, a signed accumulator and Algorithm D's
// normalized operands live in buffers that keep the capacity of the
// largest operand they have served, so that once they have grown the
// quotient is the only allocation.

// A workspace holds the buffers of one arithmetic operation. It is not
// safe for concurrent use; a Scratch hands each operation its own.
type workspace struct {
	x, y, z []uint64 // packed operands and their product
	t       []uint64 // Karatsuba's scratch (see mulScratch)

	// The signed accumulator: acc under Fast (packed), acc32 under
	// Schoolbook; neg is its sign.
	acc   []uint64
	acc32 nat
	neg   bool

	p32 nat // a 32-bit row-loop product, or a 32-bit copy of a dividend

	// Algorithm D's normalized dividend and divisor, and the packed
	// quotient. The remainder is left in the dividend's low limbs.
	un, vn, q  []uint64
	un32, vn32 nat
}

// A Scratch is a free list of workspaces shared by the operations of
// one computation, such as one solve. An operation takes a workspace
// and puts it back when it is done, so concurrent operations never
// share one, and the list holds at most as many workspaces as ever ran
// at once. A nil *Scratch gives every operation a transient workspace.
// The zero value is an empty list.
type Scratch struct {
	mu   sync.Mutex
	free []*workspace
}

func (s *Scratch) get() *workspace {
	if s == nil {
		return new(workspace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return new(workspace)
	}
	w := s.free[n-1]
	s.free = s.free[:n-1]
	return w
}

func (s *Scratch) put(w *workspace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, w)
	s.mu.Unlock()
}

// A Term is one term of a DotDiv sum: ±X·Y, or ±X alone when Y is nil.
type Term struct {
	X, Y *Int
	Neg  bool // subtract the term instead of adding it
}

// DotDiv returns (Σ ±xᵢ·yᵢ) / d as a new Int, together with the bit
// length of the sum, which is what the division's cost is measured on.
// A nil d divides by 1. The division must be exact: a non-zero
// remainder panics, as in DivExact. The products, the sum and the
// division run under the profile's kernels in a workspace taken from s,
// so once its buffers have grown the result is the only allocation.
func DotDiv(pr Profile, s *Scratch, d *Int, terms ...Term) (*Int, int) {
	w := s.get()
	defer s.put(w)
	if pr == Fast {
		return w.dotDivFast(d, terms)
	}
	return w.dotDiv32(d, terms)
}

// QuoRem sets z to x quo y and r to x rem y (truncated, as Int.QuoRem)
// and returns (z, r). The division runs under pr in a workspace taken
// from s, so the quotient and the remainder, copied into r's storage
// when it has the capacity, are its only allocations. A nil s gives it
// a transient workspace on the stack, whose buffers are allocated
// afresh.
func QuoRem(pr Profile, s *Scratch, z, x, y, r *Int) (*Int, *Int) {
	if z == r {
		panic("mp: QuoRem requires distinct quotient and remainder")
	}
	if s == nil {
		var w workspace
		return w.quoRem(pr, z, x, y, r)
	}
	w := s.get()
	defer s.put(w)
	return w.quoRem(pr, z, x, y, r)
}

// quoRem is QuoRem in the workspace w.
func (w *workspace) quoRem(pr Profile, z, x, y, r *Int) (*Int, *Int) {
	var q, rem nat
	if pr == Fast {
		w.acc = pack(w.acc, x.abs)
		q, rem = w.divFast(w.acc, y.abs)
	} else {
		q, rem = w.quoRem32(x.abs, y.abs)
	}
	// rem lies in the workspace or is x's own limbs, so copying it into
	// r's storage is safe even when r is x.
	xneg, yneg := x.neg, y.neg
	z.abs, z.neg = q, len(q) > 0 && xneg != yneg
	r.abs = append(r.abs[:0], rem...)
	r.neg = len(r.abs) > 0 && xneg
	return z, r
}

// dotDiv32 is DotDiv under Schoolbook: the 32-bit row loop and
// Algorithm D of nat.go.
func (w *workspace) dotDiv32(d *Int, terms []Term) (*Int, int) {
	w.acc32, w.neg = w.acc32[:0], false
	for _, t := range terms {
		p, neg := t.X.abs, t.Neg != t.X.neg
		if t.Y != nil {
			w.p32 = natMulBasicTo(w.p32, t.X.abs, t.Y.abs)
			p, neg = w.p32, neg != t.Y.neg
		}
		w.neg, w.acc32 = accShifted(w.neg, w.acc32, neg, p, 0)
	}
	sumBits := natBitLen(w.acc32)
	if d == nil {
		return newInt(w.neg, append(nat(nil), w.acc32...)), sumBits
	}
	q, r := w.quoRem32(w.acc32, d.abs)
	if len(r) != 0 {
		panicInexact(d, newInt(w.neg, append(nat(nil), w.acc32...)))
	}
	return newInt(w.neg != d.neg, q), sumBits
}

// dotDivFast is DotDiv under Fast: products and the sum on packed
// limbs, then the Fast division.
func (w *workspace) dotDivFast(d *Int, terms []Term) (*Int, int) {
	w.acc, w.neg = w.acc[:0], false
	for _, t := range terms {
		var p []uint64
		neg := t.Neg != t.X.neg
		if t.Y == nil {
			w.z = pack(w.z, t.X.abs)
			p = w.z
		} else {
			p, neg = w.mulFast(t.X.abs, t.Y.abs), neg != t.Y.neg
		}
		w.neg, w.acc = acc64(w.neg, w.acc, neg, p)
	}
	sumBits := bitLen64(w.acc)
	if d == nil {
		return newInt(w.neg, unpack(w.acc)), sumBits
	}
	q, r := w.divFast(w.acc, d.abs)
	if len(r) != 0 {
		panicInexact(d, newInt(w.neg, unpack(w.acc)))
	}
	return newInt(w.neg != d.neg, q), sumBits
}

// mulFast returns x·y packed: in the workspace's product buffer, except
// for the Toom-3 and NTT tiers, which allocate their own. The dispatch
// is natMulFast's.
func (w *workspace) mulFast(x, y nat) []uint64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	if len(y) < fastPackThreshold {
		w.p32 = natMulBasicTo(w.p32, x, y)
		w.z = pack(w.z, w.p32)
		return w.z
	}
	w.x, w.y = pack(w.x, x), pack(w.y, y)
	return w.mul64(w.x, w.y, fastTiers)
}

// mul64 returns x·y, canonical, in the workspace's product buffer.
func (w *workspace) mul64(x, y []uint64, tab tierTable) []uint64 {
	w.z = grow64(w.z, len(x)+len(y))
	w.t = grow64(w.t, mulScratch(max(len(x), len(y)), tab))
	mul64To(w.z, x, y, w.t, tab)
	return norm64(w.z)
}

func newInt(neg bool, abs nat) *Int {
	return &Int{neg: neg && len(abs) > 0, abs: abs}
}

func panicInexact(d, x *Int) {
	panic(fmt.Sprintf("mp: DivExact: %s does not divide %s", d, x))
}

// pack packs the canonical x into 64-bit limbs in buf's storage, which
// grows only when its capacity is short, and returns the canonical
// packed value.
func pack(buf []uint64, x nat) []uint64 {
	z := grow64(buf, (len(x)+1)/2)
	for i := range z {
		v := uint64(x[2*i])
		if 2*i+1 < len(x) {
			v |= uint64(x[2*i+1]) << 32
		}
		z[i] = v
	}
	return z
}

// unpack returns the canonical x as a new nat of exactly its length.
func unpack(x []uint64) nat { return unpackTo(nil, x) }

// unpackTo unpacks the canonical x into buf's storage, which grows only
// when its capacity is short.
func unpackTo(buf nat, x []uint64) nat {
	n := len32(x)
	if n == 0 {
		return buf[:0]
	}
	z := buf[:0]
	if cap(z) < n {
		z = make(nat, 0, n)
	}
	z = z[:n]
	for i, v := range x {
		z[2*i] = uint32(v)
		if 2*i+1 < n {
			z[2*i+1] = uint32(v >> 32)
		}
	}
	return z
}

// len32 returns the 32-bit limb count of the canonical packed x.
func len32(x []uint64) int {
	n := 2 * len(x)
	if n > 0 && x[len(x)-1]>>32 == 0 {
		n--
	}
	return n
}

// bitLen64 returns the bit length of the canonical packed x.
func bitLen64(x []uint64) int {
	if len(x) == 0 {
		return 0
	}
	return (len(x)-1)*64 + bits.Len64(x[len(x)-1])
}

// grow64 returns z[:n], reallocating (and copying z) only when z's
// capacity is below n. A buffer that must grow at least doubles, so a
// workspace serving rising operand sizes reallocates only a
// logarithmic number of times. Limbs past len(z) are not cleared.
func grow64(z []uint64, n int) []uint64 {
	if cap(z) < n {
		buf := make([]uint64, n, max(n, 2*cap(z)))
		copy(buf, z)
		return buf
	}
	return z[:n]
}

// acc64 returns the signed sum (zneg, z) + (cneg, c) of canonical
// packed values, built in z's storage: accShifted one word size up,
// without the shift. When c's sign differs and |c| > |z|, the
// difference is negated where it lies and the sign flips.
func acc64(zneg bool, z []uint64, cneg bool, c []uint64) (bool, []uint64) {
	if len(c) == 0 {
		return zneg, z
	}
	n := len(z)
	if n == 0 {
		zneg = cneg
	}
	w := max(n, len(c)) + 1
	z = grow64(z, w)
	clear(z[n:])
	if zneg == cneg {
		var carry uint64
		for i, v := range c {
			z[i], carry = bits.Add64(z[i], v, carry)
		}
		for k := len(c); carry != 0; k++ {
			z[k], carry = bits.Add64(z[k], 0, carry)
		}
		return zneg, norm64(z)
	}
	var borrow uint64
	for i, v := range c {
		z[i], borrow = bits.Sub64(z[i], v, borrow)
	}
	for k := len(c); borrow != 0 && k < w; k++ {
		z[k], borrow = bits.Sub64(z[k], 0, borrow)
	}
	if borrow != 0 {
		// z holds 2^(64w) − (|c| − |z|): negate it.
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
	z = norm64(z)
	return zneg && len(z) > 0, z
}
