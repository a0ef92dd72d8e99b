package poly

import (
	"math"

	"realroots/internal/mp"
)

// The sign screen (DESIGN.md §8). A sign evaluation needs sign(E_d)
// and, for the paper's cost accounting, the bit length of every E_k
// that a multiplication reads (see Evaluator.exact). Since
// E_k = 2^(k·s)·v_k, where v_k = v_{k−1}·x + c_{d−k} is Horner's rule
// for p at x = a/2^s, both follow from v_k whenever its value is known
// to within a bound that excludes 0 and a power of two. The screen runs
// Horner in float64, keeping the exponent in an int so that no
// coefficient or power of x overflows, alongside the same recurrence
// for Ŝ_k = Σ|c_i|·|x|^i, on which the error bound rests. Renormalizing
// on Ŝ_k rather than on the value, which may cancel, keeps Ŝ_k ≥ 1 in
// the running units, so that underflow costs only absolute errors far
// below the bound.

const (
	// screenMaxDegree bounds the degrees the screen serves; DESIGN.md
	// §8's bound assumes it. Higher degrees run the exact kernel.
	screenMaxDegree = 1 << 20
	// screenRenorm is the running sum above which the screen rescales
	// its units, and the shift past which a coefficient rebases them;
	// either way no float64 can overflow.
	screenRenorm = 512
)

// pow2 returns 2^e for -1022 ≤ e ≤ 1023.
func pow2(e int) float64 { return math.Float64frombits(uint64(e+1023) << 52) }

// exponent returns ⌊log₂ x⌋ for a positive normal x.
func exponent(x float64) int { return int(math.Float64bits(x)>>52) - 1023 }

// screen decides sign(p(a/2^s)) for a non-zero p in float64 (see the
// comment at the top of the file), converting each coefficient with
// mp.Int.Float as it reads it. With count, it also certifies the bit
// length of each E_k, k < d, and passes it to e's step tally. ok is
// false when the error bound leaves the sign, or with count a length,
// uncertain; the caller then discards the tally and runs the exact
// kernel. a = 0 is decided exactly: E_k = c_{d−k}·2^(k·s).
func (e *Evaluator) screen(p *Poly, a *mp.Int, s uint, count bool) (sign int, ok bool) {
	d := p.Degree()
	if d > screenMaxDegree {
		return 0, false
	}
	if count && d > 0 {
		e.steps.add(p.c[d].BitLen())
	}
	if a.IsZero() || d == 0 {
		for k := 1; count && k < d; k++ {
			n := p.c[d-k].BitLen()
			if n > 0 {
				n += k * int(s)
			}
			e.steps.add(n)
		}
		return p.c[0].Sign(), true
	}
	xm, xe := a.Float()
	xe -= int(s)
	ax := math.Abs(xm)
	// The value is h·2^E and the sum of magnitudes sum·2^E, sum ≥ 1.
	h, E := p.c[d].Float()
	sum := math.Abs(h)
	for k := 1; k <= d; k++ {
		h *= xm
		sum *= ax
		E += xe
		if cm, ce := p.c[d-k].Float(); cm != 0 {
			sh := ce - E
			if sh > screenRenorm {
				// The coefficient outweighs everything so far: take its
				// exponent as the unit.
				if sh <= 1022 {
					g := pow2(-sh)
					h *= g
					sum *= g
				} else {
					h, sum = 0, 0
				}
				E, sh = ce, 0
			}
			if sh >= -1022 { // a smaller term is below 2^-1021·sum: dropped
				t := cm * pow2(sh)
				h += t
				sum += math.Abs(t)
			}
		}
		if sum > 0x1p512 {
			r := exponent(sum)
			g := pow2(-r)
			h *= g
			sum *= g
			E += r
		}
		if count && k < d {
			// |h·2^E − v_k| ≤ bound·2^E (DESIGN.md §8), so |v_k| lies in
			// [2^(E+b), 2^(E+b+1)) when [m−bound, m+bound] lies in
			// [2^b, 2^(b+1)). Both differences are exact, and a subnormal
			// or zero m (b = −1023, lo = 0) fails the first test.
			bound := sum * float64(k+2) * 0x1p-50
			m := math.Abs(h)
			b := exponent(m)
			lo := pow2(b)
			if bound > m-lo || bound >= 2*lo-m {
				return 0, false
			}
			e.steps.add(k*int(s) + E + b + 1)
		}
	}
	if bound := sum * float64(d+2) * 0x1p-50; !(math.Abs(h) > bound) {
		return 0, false
	}
	if h < 0 {
		return -1, true
	}
	return 1, true
}
