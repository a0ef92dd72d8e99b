package mp

import "math/bits"

// Small-prime NTT multiplication tier for the Fast profile. Each
// 64-bit packed limb contributes two 32-bit digits; the digit vectors
// are convolved with a number-theoretic transform modulo three
// NTT-friendly primes and the true convolution coefficients are
// recovered by CRT.
//
// Prime choice (see DESIGN.md §12): each p < 2^31 so sums and
// Montgomery products stay inside uint64 without overflow, each
// p − 1 is divisible by a large power of two so power-of-two
// transform lengths exist, and the product p1·p2·p3 ≈ 2^90.3 exceeds
// the worst convolution coefficient L·(2^32−1)² < 2^23 · 2^64 = 2^87
// at the maximum supported length, making the CRT reconstruction
// exact. The smallest 2-adicity (2^23 | p2−1) caps the transform at
// L = 2^23 digits — 2^28 bits of product, far above anything the
// solver produces; beyond it nttMul64 reports failure and the caller
// falls back to Toom-3.
//
// Modular products use Montgomery reduction with R = 2^32: data stays
// in the plain domain while twiddle factors are stored premultiplied
// by R, so each butterfly costs one Montgomery product; the missing
// R factor from the pointwise step is folded into the final 1/L
// scaling.

// ntt64Threshold is the shorter-operand length, in 64-bit packed
// limbs, at which mul64t considers the NTT over Toom-3. Measured on
// this machine (balanced random operands, best of 3): at 6144 limbs
// Toom-3 still wins (8.5ms vs 11.2ms), at 8192 the NTT takes over
// (11.7ms vs 12.8ms) and by 16384 it is 1.5× ahead (23.6ms vs
// 36.0ms). The crossover is not monotone — transform lengths round up
// to powers of two, so a product just past a power of two pays for a
// half-empty transform (10240 limbs: 23.3ms vs Toom-3's 18.9ms) —
// which is why the dispatch also requires nttWorthwhile's fill-factor
// gate rather than trusting the threshold alone.
const ntt64Threshold = 8192

const (
	nttP1, nttG1 = 2013265921, 31 // 15·2^27 + 1
	nttP2, nttG2 = 998244353, 3   // 119·2^23 + 1
	nttP3, nttG3 = 754974721, 11  // 45·2^24 + 1

	nttMaxLog = 23                            // min 2-adicity across the primes
	nttP12    = uint64(nttP1) * uint64(nttP2) // fits: < 2^62
)

// montPrime holds one prime's immutable Montgomery (R = 2^32)
// constants, precomputed at package init. This is configuration, not
// mutable state.
type montPrime struct {
	p    uint64
	pinv uint32 // −p⁻¹ mod 2^32
	r2   uint64 // R² mod p
	g    uint64 // primitive root (plain domain)
}

var nttPrimes = [3]montPrime{
	newMontPrime(nttP1, nttG1),
	newMontPrime(nttP2, nttG2),
	newMontPrime(nttP3, nttG3),
}

// CRT constants (Garner's mixed-radix form), plain domain.
var (
	crtInvP1  = powMod(nttP1%nttP2, nttP2-2, nttP2)  // p1⁻¹ mod p2
	crtInvP12 = powMod(nttP12%nttP3, nttP3-2, nttP3) // (p1·p2)⁻¹ mod p3
)

func newMontPrime(p, g uint64) montPrime {
	// p⁻¹ mod 2^32 by Newton iteration, then negated.
	inv := uint32(p)
	for i := 0; i < 4; i++ {
		inv *= 2 - uint32(p)*inv
	}
	return montPrime{p: p, pinv: -inv, r2: (^uint64(0)%p + 1) % p, g: g}
}

// powMod returns b^e mod p for p < 2^31.
func powMod(b, e, p uint64) uint64 {
	r := uint64(1)
	b %= p
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * b % p
		}
		b = b * b % p
	}
	return r
}

// montMul returns a·b·R⁻¹ mod p. With a, b < p < 2^31 every
// intermediate fits in uint64: t < 2^62 and t + m·p < 2^62 + 2^63.
func montMul(a, b, p uint64, pinv uint32) uint64 {
	t := a * b
	m := uint32(t) * pinv
	u := (t + uint64(m)*p) >> 32
	if u >= p {
		u -= p
	}
	return u
}

// nttPlan carries one prime's per-length twiddle tables: tw[s−1][j] is
// the 2^s-th root of unity raised to j, in Montgomery form, so every
// butterfly is a single table lookup plus one Montgomery product.
type nttPlan struct {
	pr    *montPrime
	fwd   [][]uint64
	inv   [][]uint64
	scale uint64 // R²·L⁻¹ mod p: inverse-transform normalization
}

func newNTTPlan(pr *montPrime, logn int) *nttPlan {
	L := uint64(1) << logn
	wPlain := powMod(pr.g, (pr.p-1)/L, pr.p)
	wInvPlain := powMod(wPlain, pr.p-2, pr.p)
	lInv := powMod(L, pr.p-2, pr.p)
	pl := &nttPlan{
		pr:    pr,
		fwd:   twiddles(pr, wPlain, logn),
		inv:   twiddles(pr, wInvPlain, logn),
		scale: pr.r2 * lInv % pr.p,
	}
	return pl
}

// twiddles builds per-stage tables for a root of order 2^logn.
func twiddles(pr *montPrime, wPlain uint64, logn int) [][]uint64 {
	tw := make([][]uint64, logn)
	one := (uint64(1) << 32) % pr.p // 1 in Montgomery form
	// Root of order 2^s: square down from order 2^logn.
	wR := montMul(wPlain, pr.r2, pr.p, pr.pinv) // to Montgomery form
	for s := logn; s >= 1; s-- {
		half := 1 << (s - 1)
		t := make([]uint64, half)
		t[0] = one
		for j := 1; j < half; j++ {
			t[j] = montMul(t[j-1], wR, pr.p, pr.pinv)
		}
		tw[s-1] = t
		wR = montMul(wR, wR, pr.p, pr.pinv)
	}
	return tw
}

// transform runs the iterative radix-2 transform in place with the
// given per-stage twiddle tables. Values stay in the plain domain.
func (pl *nttPlan) transform(a []uint64, tw [][]uint64) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	p, pinv := pl.pr.p, pl.pr.pinv
	for s := 1; 1<<s <= n; s++ {
		length := 1 << s
		half := length >> 1
		w := tw[s-1]
		for i := 0; i < n; i += length {
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := montMul(a[i+j+half], w[j], p, pinv)
				sum := u + v
				if sum >= p {
					sum -= p
				}
				diff := u + p - v
				if diff >= p {
					diff -= p
				}
				a[i+j], a[i+j+half] = sum, diff
			}
		}
	}
}

// digitsMod splits packed limbs into L 32-bit digits reduced mod p.
func digitsMod(x []uint64, L int, p uint64) []uint64 {
	a := make([]uint64, L)
	for i, v := range x {
		a[2*i] = (v & 0xFFFFFFFF) % p
		a[2*i+1] = (v >> 32) % p
	}
	return a
}

// nttWorthwhile reports whether an lx-by-ly-limb product should take
// the NTT path: the transform length must exist (≤ 2^nttMaxLog digits)
// and be at least ¾ full. Transform cost depends on the padded
// power-of-two length, not the product size, so a just-past-a-power
// shape would pay nearly double — measured at 10240 limbs the NTT runs
// 23% slower than Toom-3 at 62% fill, while every shape at ≥75% fill
// wins (see ntt64Threshold).
func nttWorthwhile(lx, ly int) bool {
	need := 2*lx + 2*ly
	logn := 1
	for 1<<logn < need {
		logn++
	}
	if logn > nttMaxLog {
		return false
	}
	return 4*need >= 3<<logn
}

// nttMul64 multiplies packed operands via the three-prime NTT. It
// returns nil when the product would exceed the exactness bound
// (transform length over 2^23 digits); the caller then falls back to
// Toom-3, which has no size ceiling.
func nttMul64(x, y []uint64, tab tierTable) []uint64 {
	need := 2*len(x) + 2*len(y) // product digit count, one past the top
	logn := 1
	for 1<<logn < need {
		logn++
	}
	if logn > nttMaxLog {
		return nil
	}
	L := 1 << logn

	var res [3][]uint64
	for pi := range nttPrimes {
		pl := newNTTPlan(&nttPrimes[pi], logn)
		a := digitsMod(x, L, pl.pr.p)
		b := digitsMod(y, L, pl.pr.p)
		pl.transform(a, pl.fwd)
		pl.transform(b, pl.fwd)
		p, pinv := pl.pr.p, pl.pr.pinv
		for i := range a {
			a[i] = montMul(a[i], b[i], p, pinv)
		}
		pl.transform(a, pl.inv)
		for i := range a {
			a[i] = montMul(a[i], pl.scale, p, pinv)
		}
		res[pi] = a
	}

	// Garner reconstruction digit by digit, accumulated into the
	// product at 32-bit granularity. Two scratch limbs absorb the
	// transient top-word writes; the true carries always land inside
	// len(x)+len(y) limbs because partial sums never exceed the final
	// product.
	z := make([]uint64, len(x)+len(y)+2)
	r1s, r2s, r3s := res[0], res[1], res[2]
	for i := 0; i < need; i++ {
		r1, r2, r3 := r1s[i], r2s[i], r3s[i]
		t2 := (r2 + nttP2 - r1%nttP2) % nttP2
		t2 = t2 * crtInvP1 % nttP2
		v12 := r1 + nttP1*t2 // < p1·p2 + p1 < 2^62
		t3 := (r3 + nttP3 - v12%nttP3) % nttP3
		t3 = t3 * crtInvP12 % nttP3
		hi, lo := bits.Mul64(nttP12, t3)
		var c uint64
		lo, c = bits.Add64(lo, v12, 0)
		hi += c
		if hi|lo == 0 {
			continue
		}
		at := i >> 1
		var w0, w1, w2 uint64
		if i&1 == 0 {
			w0, w1 = lo, hi
		} else {
			w0, w1, w2 = lo<<32, lo>>32|hi<<32, hi>>32
		}
		z[at], c = bits.Add64(z[at], w0, 0)
		z[at+1], c = bits.Add64(z[at+1], w1, c)
		z[at+2], c = bits.Add64(z[at+2], w2, c)
		for j := at + 3; c != 0; j++ {
			z[j], c = bits.Add64(z[j], 0, c)
		}
	}
	return norm64(z)
}
