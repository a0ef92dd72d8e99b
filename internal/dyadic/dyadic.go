// Package dyadic implements exact dyadic rational numbers n/2^s. The
// paper's implementation performs all computation over the integers by
// identifying each rational x it encounters with the integer 2^µ·x
// (§3.3); Dyadic is that identification made explicit, carrying the
// scale alongside the scaled integer so that interval endpoints, grid
// points, and Newton iterates of different precisions can be mixed
// exactly and without a denominator GCD.
package dyadic

import (
	"fmt"
	"math/big"

	"realroots/internal/mp"
)

// A Dyadic is the exact rational Num/2^Scale. Dyadics are immutable:
// operations return new values. The canonical form has an odd numerator
// or zero scale; the zero value is a usable 0.
type Dyadic struct {
	num   *mp.Int
	scale uint
}

// zero is the numerator the zero value reads as; never modified.
var zero mp.Int

// New returns num/2^scale in canonical form. The numerator is copied.
func New(num *mp.Int, scale uint) Dyadic {
	d := Dyadic{num: new(mp.Int).Set(num), scale: scale}
	return d.normalize()
}

// FromInt returns the dyadic equal to the integer v.
func FromInt(v *mp.Int) Dyadic { return New(v, 0) }

// FromInt64 returns the dyadic equal to the integer v.
func FromInt64(v int64) Dyadic { return New(mp.NewInt(v), 0) }

// normalize returns d in canonical form, shifting the numerator in
// place: d must own it. A canonical Dyadic with a non-zero scale has an
// odd numerator.
func (d Dyadic) normalize() Dyadic {
	if d.num == nil {
		d.num = new(mp.Int)
	}
	if d.num.IsZero() {
		d.scale = 0
		return d
	}
	if d.scale == 0 {
		return d
	}
	tz := d.num.TrailingZeros()
	if tz > d.scale {
		tz = d.scale
	}
	if tz > 0 {
		d.num.Rsh(d.num, tz)
		d.scale -= tz
	}
	return d
}

// n returns the numerator for reading: the zero value's reads as a
// shared 0 instead of a fresh allocation.
func (d Dyadic) n() *mp.Int {
	if d.num == nil {
		return &zero
	}
	return d.num
}

// Num returns the canonical numerator. It must not be mutated.
func (d Dyadic) Num() *mp.Int {
	if d.num == nil {
		return new(mp.Int)
	}
	return d.num
}

// Scale returns the canonical scale s in n/2^s.
func (d Dyadic) Scale() uint { return d.scale }

// ScaledNum returns d·2^s as an integer. It panics if d is not an
// integer multiple of 2^-s (i.e. if the canonical scale exceeds s).
func (d Dyadic) ScaledNum(s uint) *mp.Int {
	if d.scale > s {
		panic(fmt.Sprintf("dyadic: %v not representable at scale %d", d, s))
	}
	return new(mp.Int).Lsh(d.Num(), s-d.scale)
}

// Sign returns the sign of d.
func (d Dyadic) Sign() int { return d.n().Sign() }

// Neg returns -d.
func (d Dyadic) Neg() Dyadic {
	return Dyadic{num: new(mp.Int).Neg(d.Num()), scale: d.scale}
}

// Add returns d+e. The numerators are aligned as they are read, so the
// only allocation is the result.
func (d Dyadic) Add(e Dyadic) Dyadic {
	s := max(d.scale, e.scale)
	return Dyadic{num: new(mp.Int).AddLsh(d.n(), s-d.scale, e.n(), s-e.scale), scale: s}.normalize()
}

// Sub returns d-e, allocating only the result.
func (d Dyadic) Sub(e Dyadic) Dyadic {
	s := max(d.scale, e.scale)
	return Dyadic{num: new(mp.Int).SubLsh(d.n(), s-d.scale, e.n(), s-e.scale), scale: s}.normalize()
}

// Mul returns d·e.
func (d Dyadic) Mul(e Dyadic) Dyadic {
	return Dyadic{num: new(mp.Int).Mul(d.Num(), e.Num()), scale: d.scale + e.scale}.normalize()
}

// MulPow2 returns d·2^k for any (possibly negative) k.
func (d Dyadic) MulPow2(k int) Dyadic {
	if d.Sign() == 0 {
		return d
	}
	if k >= 0 {
		if int(d.scale) >= k {
			return Dyadic{num: d.Num(), scale: d.scale - uint(k)}
		}
		return Dyadic{num: new(mp.Int).Lsh(d.Num(), uint(k)-d.scale), scale: 0}
	}
	if d.scale == 0 && d.num.Bit(0) == 0 {
		return New(d.num, uint(-k)) // an even integer trades trailing zeros for scale
	}
	// An odd numerator stays canonical at any scale.
	return Dyadic{num: d.num, scale: d.scale + uint(-k)}
}

// Half returns d/2.
func (d Dyadic) Half() Dyadic { return d.MulPow2(-1) }

// Mid returns the midpoint (d+e)/2, allocating only the result.
func (d Dyadic) Mid(e Dyadic) Dyadic {
	s := max(d.scale, e.scale)
	return Dyadic{num: new(mp.Int).AddLsh(d.n(), s-d.scale, e.n(), s-e.scale), scale: s + 1}.normalize()
}

// Cmp compares d and e, returning -1, 0, or +1. It allocates nothing.
func (d Dyadic) Cmp(e Dyadic) int {
	s := max(d.scale, e.scale)
	return mp.CmpLsh(d.n(), s-d.scale, e.n(), s-e.scale)
}

// Equal reports d == e.
func (d Dyadic) Equal(e Dyadic) bool { return d.Cmp(e) == 0 }

// IsInt reports whether d is an integer.
func (d Dyadic) IsInt() bool { return d.scale == 0 }

// CeilGrid returns the µ-approximation of d in the paper's sense
// (§1): the smallest integer multiple of 2^-µ that is ≥ d, i.e.
// 2^-µ·⌈2^µ·d⌉.
func (d Dyadic) CeilGrid(mu uint) Dyadic {
	if d.scale <= mu {
		return d // already on the grid
	}
	// ⌈n/2^(scale-µ)⌉ = -⌊-n/2^(scale-µ)⌋.
	sh := d.scale - mu
	n := new(mp.Int).Neg(d.Num())
	n.Rsh(n, sh)
	n.Neg(n)
	return Dyadic{num: n, scale: mu}.normalize()
}

// FloorGrid returns the largest integer multiple of 2^-µ that is ≤ d.
func (d Dyadic) FloorGrid(mu uint) Dyadic {
	if d.scale <= mu {
		return d
	}
	n := new(mp.Int).Rsh(d.Num(), d.scale-mu)
	return Dyadic{num: n, scale: mu}.normalize()
}

// OnGrid reports whether d is an integer multiple of 2^-µ.
func (d Dyadic) OnGrid(mu uint) bool { return d.scale <= mu }

// GridStep returns the grid spacing 2^-µ as a Dyadic.
func GridStep(mu uint) Dyadic {
	return Dyadic{num: mp.NewInt(1), scale: mu}
}

// Rat returns d as an exact big.Rat (for the public API boundary).
func (d Dyadic) Rat() *big.Rat {
	den := new(big.Int).Lsh(big.NewInt(1), d.scale)
	return new(big.Rat).SetFrac(d.Num().ToBig(), den)
}

// Float64 returns the nearest float64 to d (for diagnostics only).
func (d Dyadic) Float64() float64 {
	f, _ := d.Rat().Float64()
	return f
}

// String renders d exactly, e.g. "-13/2^4".
func (d Dyadic) String() string {
	if d.scale == 0 {
		return d.Num().String()
	}
	return fmt.Sprintf("%s/2^%d", d.Num(), d.scale)
}

// Decimal renders d as a decimal numeral with the given number of
// fractional digits, rounding toward zero ("3.1415").
func (d Dyadic) Decimal(digits int) string {
	n := d.Num()
	neg := n.Sign() < 0
	abs := new(mp.Int).Abs(n)
	// abs·10^digits >> scale gives the scaled decimal, truncated.
	p10 := mp.NewInt(1)
	ten := mp.NewInt(10)
	for i := 0; i < digits; i++ {
		p10 = new(mp.Int).Mul(p10, ten)
	}
	v := new(mp.Int).Mul(abs, p10)
	v.Rsh(v, d.scale)
	s := v.String()
	for len(s) <= digits {
		s = "0" + s
	}
	intPart, fracPart := s[:len(s)-digits], s[len(s)-digits:]
	out := intPart
	if digits > 0 {
		out += "." + fracPart
	}
	if neg {
		out = "-" + out
	}
	return out
}
