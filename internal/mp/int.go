package mp

import (
	"fmt"
	"math/big"
	"math/bits"
)

// An Int is an arbitrary-precision signed integer. The zero value is a
// usable 0. Like math/big, operations have the form z.Op(x, y), store the
// result in z, and return z; receivers may alias operands.
type Int struct {
	neg bool
	abs nat
}

// NewInt returns a new Int set to v.
func NewInt(v int64) *Int {
	return new(Int).SetInt64(v)
}

// SetInt64 sets z to v and returns z.
func (z *Int) SetInt64(v int64) *Int {
	z.neg = v < 0
	uv := uint64(v)
	if z.neg {
		uv = -uv
	}
	z.abs = nat{uint32(uv), uint32(uv >> limbBits)}.norm()
	return z
}

// Set sets z to x and returns z.
func (z *Int) Set(x *Int) *Int {
	if z == x {
		return z
	}
	z.neg = x.neg
	z.abs = append(z.abs[:0], x.abs...)
	return z
}

// Sign returns -1, 0, or +1 according to the sign of z.
func (z *Int) Sign() int {
	if len(z.abs) == 0 {
		return 0
	}
	if z.neg {
		return -1
	}
	return 1
}

// IsZero reports whether z == 0.
func (z *Int) IsZero() bool { return len(z.abs) == 0 }

// IsOne reports whether z == 1.
func (z *Int) IsOne() bool {
	return !z.neg && len(z.abs) == 1 && z.abs[0] == 1
}

// BitLen returns the length of |z| in bits; BitLen(0) == 0.
func (z *Int) BitLen() int { return natBitLen(z.abs) }

// Bit returns the i'th bit of |z|.
func (z *Int) Bit(i uint) uint { return natBit(z.abs, i) }

// TrailingZeros returns the number of trailing zero bits of |z|; z must be
// non-zero.
func (z *Int) TrailingZeros() uint { return natTrailingZeros(z.abs) }

// Cmp compares z and x, returning -1, 0, or +1.
func (z *Int) Cmp(x *Int) int {
	switch {
	case z.neg && !x.neg:
		return -1
	case !z.neg && x.neg:
		return 1
	case z.neg:
		return -natCmp(z.abs, x.abs)
	default:
		return natCmp(z.abs, x.abs)
	}
}

// CmpAbs compares |z| and |x|.
func (z *Int) CmpAbs(x *Int) int { return natCmp(z.abs, x.abs) }

// Neg sets z to -x and returns z.
func (z *Int) Neg(x *Int) *Int {
	z.Set(x)
	z.neg = len(z.abs) > 0 && !z.neg
	return z
}

// Abs sets z to |x| and returns z.
func (z *Int) Abs(x *Int) *Int {
	z.Set(x)
	z.neg = false
	return z
}

// Add sets z to x+y and returns z.
func (z *Int) Add(x, y *Int) *Int {
	if x.neg == y.neg {
		z.abs = natAdd(x.abs, y.abs)
		z.neg = x.neg && len(z.abs) > 0
		return z
	}
	// Signs differ: subtract the smaller magnitude from the larger.
	if natCmp(x.abs, y.abs) >= 0 {
		neg := x.neg
		z.abs = natSub(x.abs, y.abs)
		z.neg = neg && len(z.abs) > 0
	} else {
		neg := y.neg
		z.abs = natSub(y.abs, x.abs)
		z.neg = neg && len(z.abs) > 0
	}
	return z
}

// Sub sets z to x-y and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	if x.neg != y.neg {
		z.abs = natAdd(x.abs, y.abs)
		z.neg = x.neg && len(z.abs) > 0
		return z
	}
	if natCmp(x.abs, y.abs) >= 0 {
		neg := x.neg
		z.abs = natSub(x.abs, y.abs)
		z.neg = neg && len(z.abs) > 0
	} else {
		neg := !x.neg
		z.abs = natSub(y.abs, x.abs)
		z.neg = neg && len(z.abs) > 0
	}
	return z
}

// Mul sets z to x*y using schoolbook multiplication (the paper's cost
// model) and returns z. Use MulProfile to select the algorithm per run.
func (z *Int) Mul(x, y *Int) *Int { return z.MulProfile(Schoolbook, x, y) }

// MulProfile sets z to x*y using the arithmetic selected by pr and
// returns z. The profile changes only the algorithm (and hence the
// running time), never the result.
func (z *Int) MulProfile(pr Profile, x, y *Int) *Int {
	neg := x.neg != y.neg
	z.abs = pr.mul(x.abs, y.abs)
	z.neg = neg && len(z.abs) > 0
	return z
}

// MulInt64 sets z to x*v and returns z.
func (z *Int) MulInt64(x *Int, v int64) *Int {
	var t Int
	t.SetInt64(v)
	return z.Mul(x, &t)
}

// Sqr sets z to x² and returns z.
func (z *Int) Sqr(x *Int) *Int { return z.Mul(x, x) }

// QuoRem sets z to the quotient x/y and r to the remainder x%y with
// truncation toward zero (Go semantics: sign of r matches x), and returns
// (z, r). y must be non-zero. z and r must be distinct.
func (z *Int) QuoRem(x, y *Int, r *Int) (*Int, *Int) {
	return z.QuoRemProfile(Schoolbook, x, y, r)
}

// QuoRemProfile is QuoRem with the division algorithm selected by pr,
// run in a transient workspace (see mp.QuoRem).
func (z *Int) QuoRemProfile(pr Profile, x, y *Int, r *Int) (*Int, *Int) {
	return QuoRem(pr, nil, z, x, y, r)
}

// Quo sets z to x/y (truncated) and returns z.
func (z *Int) Quo(x, y *Int) *Int {
	var r Int
	z.QuoRem(x, y, &r)
	return z
}

// Rem sets z to x%y (truncated) and returns z.
func (z *Int) Rem(x, y *Int) *Int {
	var q Int
	q.QuoRem(x, y, z)
	return z
}

// DivExact sets z to x/y where the division is known to be exact, and
// returns z. It panics if the division leaves a remainder: in this
// algorithm a non-exact division can only arise from corrupted state, so
// it is treated as an invariant violation rather than an error value.
func (z *Int) DivExact(x, y *Int) *Int { return z.DivExactProfile(Schoolbook, x, y) }

// DivExactProfile is DivExact with the division algorithm selected by pr.
func (z *Int) DivExactProfile(pr Profile, x, y *Int) *Int {
	var r Int
	z.QuoRemProfile(pr, x, y, &r)
	if !r.IsZero() {
		panic(fmt.Sprintf("mp: DivExact: %s does not divide %s", y, x))
	}
	return z
}

// AddLsh sets z to x·2^xs + y·2^ys and returns z. Neither shifted
// operand is built, and z's storage is reused when it can hold the
// sum, so the only allocation is z's new storage when it cannot.
func (z *Int) AddLsh(x *Int, xs uint, y *Int, ys uint) *Int {
	return z.addLsh(x, xs, y, ys, y.neg)
}

// SubLsh sets z to x·2^xs − y·2^ys and returns z, allocating only
// when z's storage cannot hold the difference.
func (z *Int) SubLsh(x *Int, xs uint, y *Int, ys uint) *Int {
	return z.addLsh(x, xs, y, ys, !y.neg)
}

// addLsh sets z to x·2^xs + (±|y|)·2^ys, the sign of the second term
// given by yneg.
func (z *Int) addLsh(x *Int, xs uint, y *Int, ys uint, yneg bool) *Int {
	w := max(len(x.abs)+int(xs/limbBits), len(y.abs)+int(ys/limbBits)) + 2
	var buf nat
	if z != x && z != y { // the shifted x is written before x and y are read
		buf = z.abs[:0]
	}
	if cap(buf) < w {
		buf = make(nat, 0, w)
	}
	abs := natShlTo(buf, x.abs, xs)
	z.neg, z.abs = accShifted(x.neg, abs, yneg, y.abs, ys)
	return z
}

// CmpLsh compares x·2^xs with y·2^ys, returning -1, 0 or +1, without
// allocating: bit lengths decide first, then the limbs, with the shift
// applied as they are read.
func CmpLsh(x *Int, xs uint, y *Int, ys uint) int {
	sx, sy := x.Sign(), y.Sign()
	switch {
	case sx < sy:
		return -1
	case sx > sy:
		return 1
	case sx == 0:
		return 0
	}
	var c int
	if xs >= ys {
		c = natCmpShl(x.abs, xs-ys, y.abs)
	} else {
		c = -natCmpShl(y.abs, ys-xs, x.abs)
	}
	return c * sx
}

// Lsh sets z to x<<s and returns z.
func (z *Int) Lsh(x *Int, s uint) *Int {
	neg := x.neg
	z.abs = natShl(x.abs, s)
	z.neg = neg && len(z.abs) > 0
	return z
}

// Rsh sets z to x>>s (arithmetic shift: floor division by 2^s) and
// returns z. z.Rsh(z, s) shifts in place.
func (z *Int) Rsh(x *Int, s uint) *Int {
	var dst nat
	if z == x {
		dst = z.abs
	}
	if !x.neg {
		z.abs = natShrTo(dst, x.abs, s)
		z.neg = false
		return z
	}
	// Floor semantics for negative x: -((|x| + 2^s - 1) >> s).
	lost := false
	limbShift := int(s / limbBits)
	bitShift := s % limbBits
	for i := 0; i < limbShift && i < len(x.abs); i++ {
		if x.abs[i] != 0 {
			lost = true
			break
		}
	}
	if !lost && bitShift > 0 && limbShift < len(x.abs) {
		if x.abs[limbShift]&uint32((uint64(1)<<bitShift)-1) != 0 {
			lost = true
		}
	}
	z.abs = natShrTo(dst, x.abs, s)
	if lost {
		z.abs = natAdd(z.abs, nat{1})
	}
	z.neg = len(z.abs) > 0
	return z
}

// GCD sets z to the non-negative greatest common divisor of x and y and
// returns z. GCD(0,0) == 0.
func (z *Int) GCD(x, y *Int) *Int {
	var a, b Int
	a.Abs(x)
	b.Abs(y)
	for !b.IsZero() {
		var r Int
		r.Rem(&a, &b)
		a.Set(&b)
		b.Set(&r)
	}
	return z.Set(&a)
}

// GCDProfile is GCD computed with the profile's algorithms: the
// Euclidean remainder loop above for Schoolbook, a packed binary GCD
// for Fast once either operand is large enough to pack.
func (z *Int) GCDProfile(pr Profile, x, y *Int) *Int {
	if pr != Fast || (len(x.abs) < fastPackThreshold && len(y.abs) < fastPackThreshold) {
		return z.GCD(x, y)
	}
	z.abs = unpack(gcd64(pack(nil, x.abs), pack(nil, y.abs)))
	z.neg = false
	return z
}

// Float returns m and e with m·2^e ≈ z, reading at most z's top three
// limbs: m is 0 for z = 0, and otherwise has z's sign and 1 ≤ |m| ≤ 2.
// The top 64 bits of |z|, truncated, are rounded to the nearest
// float64, so |m·2^e − z| ≤ (2^-53 + 2^-63)·|z|: less than two
// roundings of unit 2^-53 (DESIGN.md §8). The exponent is an int, so
// no Int overflows it.
func (z *Int) Float() (m float64, e int) {
	n := len(z.abs)
	if n == 0 {
		return 0, 0
	}
	top := uint64(z.abs[n-1]) << limbBits
	if n > 1 {
		top |= uint64(z.abs[n-2])
	}
	// The top limb is non-zero, so lz < limbBits, and z has
	// n·limbBits − lz bits.
	lz := uint(bits.LeadingZeros64(top))
	top <<= lz
	if n > 2 {
		top |= uint64(z.abs[n-3]) >> (limbBits - lz)
	}
	m = float64(top) * 0x1p-63
	if z.neg {
		m = -m
	}
	return m, n*limbBits - int(lz) - 1
}

// Int64 returns the int64 value of z; it panics if z does not fit.
func (z *Int) Int64() int64 {
	if len(z.abs) > 2 {
		panic("mp: Int64 overflow")
	}
	var v uint64
	if len(z.abs) > 0 {
		v = uint64(z.abs[0])
	}
	if len(z.abs) > 1 {
		v |= uint64(z.abs[1]) << limbBits
	}
	if z.neg {
		if v > 1<<63 {
			panic("mp: Int64 overflow")
		}
		return -int64(v)
	}
	if v >= 1<<63 {
		panic("mp: Int64 overflow")
	}
	return int64(v)
}

// IsInt64 reports whether z fits in an int64.
func (z *Int) IsInt64() bool {
	if len(z.abs) > 2 {
		return false
	}
	var v uint64
	if len(z.abs) > 0 {
		v = uint64(z.abs[0])
	}
	if len(z.abs) > 1 {
		v |= uint64(z.abs[1]) << limbBits
	}
	if z.neg {
		return v <= 1<<63
	}
	return v < 1<<63
}

// ToBig returns z as a math/big Int (for test oracles and I/O boundaries).
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	words := make([]big.Word, 0, len(z.abs))
	// Pack little-endian uint32 limbs into big.Words.
	if bigWordBits() == 64 {
		for i := 0; i < len(z.abs); i += 2 {
			w := big.Word(z.abs[i])
			if i+1 < len(z.abs) {
				w |= big.Word(z.abs[i+1]) << limbBits
			}
			words = append(words, w)
		}
	} else {
		for _, l := range z.abs {
			words = append(words, big.Word(l))
		}
	}
	b.SetBits(words)
	if z.neg {
		b.Neg(b)
	}
	return b
}

// SetBig sets z from a math/big Int and returns z.
func (z *Int) SetBig(b *big.Int) *Int {
	words := b.Bits()
	z.abs = z.abs[:0]
	if bigWordBits() == 64 {
		for _, w := range words {
			z.abs = append(z.abs, uint32(w), uint32(uint64(w)>>limbBits))
		}
	} else {
		for _, w := range words {
			z.abs = append(z.abs, uint32(w))
		}
	}
	z.abs = z.abs.norm()
	z.neg = b.Sign() < 0 && len(z.abs) > 0
	return z
}

func bigWordBits() int {
	return 32 << (^big.Word(0) >> 63 & 1)
}
