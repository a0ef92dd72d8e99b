package poly_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// bigScaled returns the scaled Horner values E_0..E_d of c (low to high
// coefficients) at a/2^s over math/big: E_k = E_{k-1}·a + c_{d-k}·2^(k·s).
func bigScaled(c []*big.Int, a *big.Int, s uint) []*big.Int {
	d := len(c) - 1
	es := []*big.Int{new(big.Int).Set(c[d])}
	for k := 1; k <= d; k++ {
		v := new(big.Int).Mul(es[k-1], a)
		v.Add(v, new(big.Int).Lsh(c[d-k], uint(k)*s))
		es = append(es, v)
	}
	return es
}

// FuzzScaledHornerVsBig checks the in-place Horner kernel, step by step,
// and the Evaluator under both profiles against math/big: degrees 0–40,
// mixed-sign and zero coefficients, shifts 0–200 bits, and points on
// both sides of the Fast profile's packing threshold. In flip mode each
// coefficient is chosen to outweigh v·a with the opposite sign, so
// every step subtracts past zero and the accumulator's sign flips.
func FuzzScaledHornerVsBig(f *testing.F) {
	for _, sh := range []uint8{0, 1, 16, 31, 32, 33, 64, 95, 200} {
		for _, alen := range []int{0, 1, 3, 6, 9, 14, 17, 28, 31, 32, 33, 48} {
			f.Add(int64(sh)*7+int64(alen), uint8(sh%41), sh, make([]byte, alen), uint8(alen))
		}
	}
	f.Add(int64(3), uint8(40), uint8(64), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f}, uint8(0b011))
	f.Fuzz(func(t *testing.T, seed int64, deg, shift uint8, ab []byte, flags uint8) {
		if len(ab) > 64 {
			ab = ab[:64]
		}
		r := rand.New(rand.NewSource(seed))
		for i := range ab {
			ab[i] ^= byte(r.Intn(256)) // all-zero seed bytes still give full-width points
		}
		d, s := int(deg)%41, uint(shift)%201
		flip := flags&2 != 0
		pr := mp.Schoolbook
		if flags&4 != 0 {
			pr = mp.Fast
		}
		a := new(big.Int).SetBytes(ab)
		if flags&1 != 0 {
			a.Neg(a)
		}
		if flip && a.Sign() == 0 {
			a.SetInt64(1)
		}

		// Coefficients from the top down, so flip mode can pick each one
		// against the reference value it is added to.
		c := make([]*big.Int, d+1)
		var prev *big.Int
		for k := 0; k <= d; k++ {
			v := new(big.Int)
			switch {
			case flip && k > 0:
				// |c·2^sh| > |prev·a|, opposite in sign.
				prod := new(big.Int).Mul(prev, a)
				v.Rsh(new(big.Int).Abs(prod), uint(k)*s)
				v.Add(v, big.NewInt(1+r.Int63n(1000)))
				if prod.Sign() > 0 {
					v.Neg(v)
				}
			case k == 0 || r.Intn(4) != 0:
				v.Rand(r, new(big.Int).Lsh(big.NewInt(1), uint(1+r.Intn(130))))
				if r.Intn(2) == 0 {
					v.Neg(v)
				}
				if k == 0 && v.Sign() == 0 {
					v.SetInt64(1)
				}
			}
			c[d-k] = v
			if k == 0 {
				prev = v
			} else {
				prev = new(big.Int).Mul(prev, a)
				prev.Add(prev, new(big.Int).Lsh(v, uint(k)*s))
			}
		}
		want := bigScaled(c, a, s)

		ma := new(mp.Int).SetBig(a)
		mc := make([]*mp.Int, len(c))
		for i := range c {
			mc[i] = new(mp.Int).SetBig(c[i])
		}
		var h mp.Horner
		h.Set(mc[d])
		var view mp.Int
		for k := 1; k <= d; k++ {
			h.Step(ma, mc[d-k], uint(k)*s)
			if got := h.View(&view).ToBig(); got.Cmp(want[k]) != 0 || h.Sign() != want[k].Sign() {
				t.Fatalf("step %d of %d (s=%d, a=%v): got %v sign %d, want %v", k, d, s, a, got, h.Sign(), want[k])
			}
			if flip && h.Sign() != -want[k-1].Sign()*a.Sign() {
				t.Fatalf("step %d did not flip the sign of v·a", k)
			}
		}

		p := poly.New(mc...)
		var c1 metrics.Counters
		ctx := metrics.Ctx{C: &c1, Phase: metrics.PhaseBisection, Profile: pr}
		var ev poly.Evaluator
		if got := ev.EvalScaled(ctx, p, ma, s).ToBig(); got.Cmp(want[d]) != 0 {
			t.Fatalf("%v Evaluator.EvalScaled = %v, want %v", pr, got, want[d])
		}
		if got := ev.SignAt(ctx, p, ma, s); got != want[d].Sign() {
			t.Fatalf("%v Evaluator.SignAt = %d, want %d", pr, got, want[d].Sign())
		}
		if got := p.EvalScaledCtx(ctx, ma, s).ToBig(); got.Cmp(want[d]) != 0 {
			t.Fatalf("%v EvalScaledCtx = %v, want %v", pr, got, want[d])
		}
		if ph := c1.Snapshot().Phases[metrics.PhaseBisection]; ph.Evals != 3 || ph.Muls != int64(3*d) || ph.Adds != int64(3*d) {
			t.Fatalf("recorded %d evals, %d muls, %d adds; want 3, %d, %d", ph.Evals, ph.Muls, ph.Adds, 3*d, 3*d)
		}
	})
}

// An evalShape is one scaled evaluation: p at a/2^s.
type evalShape struct {
	name string
	p    *poly.Poly
	a    *mp.Int
	s    uint
}

// zeroAllocShapes are the evaluations the zero-allocation guard and
// BenchmarkEvalScaled pin: a §5 characteristic polynomial at a
// rootd-sized point, and a degree-16 polynomial at a multi-limb point.
// The sign screen decides both.
func zeroAllocShapes() []evalShape {
	r := rand.New(rand.NewSource(5))
	c := make([]*mp.Int, 17)
	for i := range c {
		c[i] = mp.RandInt(r, 64)
	}
	c[16] = mp.NewInt(1)
	a70 := new(mp.Int).Lsh(mp.NewInt(1), 69)
	a70.Add(a70, mp.RandInt(r, 60))
	return []evalShape{
		{"charpoly01-40/abits=24/s=16", workload.CharPoly01(1, 40), mp.NewInt(-0xb5e3a1), 16},
		{"deg=16/abits=70/s=64", poly.New(c...), a70, 64},
	}
}

// fallbackShape is an evaluation the screen must leave to the exact
// kernel: a degree-12 polynomial at its root 3/8.
func fallbackShape() evalShape {
	p := poly.FromInt64s(-3, 8) // 8x − 3
	for i := 1; i <= 11; i++ {
		p = p.Mul(poly.FromInt64s(int64(i*i), int64(-i), 1))
	}
	return evalShape{"root/deg=12", p, mp.NewInt(3), 3}
}

// highPrecisionShapes are sign evaluations at µ = 256 on the §5
// characteristic polynomial of degree 40, beside a root r: at r's
// 2^-256 approximation, where the value lies inside the screen's error
// bound and the exact kernel decides, and 2^-16 below it, where the
// screen decides. The approximation comes from bisecting with exact
// signs, from the first halving of the root bound below which P
// changes sign.
func highPrecisionShapes() []evalShape {
	const s = 256
	p := workload.CharPoly01(1, 40)
	hi := p.RootBound()
	lo := new(mp.Int).Rsh(hi, 1)
	for p.SignAt(lo, 0) == p.SignAt(hi, 0) {
		hi.Set(lo)
		lo.Rsh(lo, 1)
	}
	sl := p.SignAt(lo, 0)
	lo.Lsh(lo, s)
	hi.Lsh(hi, s)
	width, mid := new(mp.Int), new(mp.Int)
	for width.Sub(hi, lo).Cmp(mp.NewInt(1)) > 0 {
		mid.Add(lo, hi).Rsh(mid, 1)
		if p.SignAt(mid, s) == sl {
			lo.Set(mid)
		} else {
			hi.Set(mid)
		}
	}
	below := new(mp.Int).Sub(lo, new(mp.Int).Lsh(mp.NewInt(1), s-16))
	return []evalShape{
		{"charpoly01-40/root/s=256", p, lo, s},
		{"charpoly01-40/root-2^-16/s=256", p, below, s},
	}
}

// TestEvaluatorSignZeroAlloc pins that sign evaluations allocate
// nothing, with and without counters, under both profiles: through a
// warmed Evaluator, whichever kernel decides the sign, and through a
// one-shot Poly.SignAtCtx that the screen decides.
func TestEvaluatorSignZeroAlloc(t *testing.T) {
	type check struct {
		sh      evalShape
		oneShot bool
		kernel  metrics.Kernel
	}
	var checks []check
	for _, sh := range zeroAllocShapes() {
		checks = append(checks, check{sh, false, metrics.KernelScreen}, check{sh, true, metrics.KernelScreen})
	}
	checks = append(checks, check{fallbackShape(), false, metrics.KernelExact})
	for _, ck := range checks {
		sh := ck.sh
		for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
			var c metrics.Counters
			for _, ctx := range []metrics.Ctx{{Profile: pr}, {C: &c, Phase: metrics.PhaseBisection, Profile: pr}} {
				var ev poly.Evaluator
				sign := func() int { return ev.SignAt(ctx, sh.p, sh.a, sh.s) }
				if ck.oneShot {
					sign = func() int { return sh.p.SignAtCtx(ctx, sh.a, sh.s) }
				}
				want := sh.p.EvalScaled(sh.a, sh.s).Sign()
				if got := sign(); got != want {
					t.Fatalf("%s: sign %d, want %d", sh.name, got, want)
				}
				if n := testing.AllocsPerRun(100, func() { sign() }); n != 0 {
					t.Errorf("%s %v counted=%v one-shot=%v: %.1f allocs per sign evaluation, want 0", sh.name, pr, ctx.C != nil, ck.oneShot, n)
				}
			}
			signs := c.Snapshot().Signs[metrics.PhaseBisection]
			if signs[ck.kernel] != 102 || signs[1-ck.kernel] != 0 {
				t.Errorf("%s %v: kernels decided %v, want all 102 by %v", sh.name, pr, signs, ck.kernel)
			}
		}
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	evalSink *mp.Int
	signSink int
)

// BenchmarkEvalScaled times one scaled evaluation: the value through
// EvalScaled, and the sign through a warmed Evaluator with and without
// counters, and under the Fast profile. The screen decides the signs of
// the random and zero-allocation shapes and of the µ = 256 point off
// the root; the exact kernel decides, after the screen declines, the
// fallback shape and the µ = 256 point at the root.
func BenchmarkEvalScaled(b *testing.B) {
	var shapes []evalShape
	for _, deg := range []int{16, 64} {
		for _, x := range []int{32, 512} {
			r := rand.New(rand.NewSource(3))
			c := make([]*mp.Int, deg+1)
			for i := range c {
				c[i] = mp.RandInt(r, 256)
			}
			if c[deg].IsZero() {
				c[deg] = mp.NewInt(1)
			}
			pt := mp.RandInt(rand.New(rand.NewSource(4)), x)
			shapes = append(shapes, evalShape{fmt.Sprintf("deg=%d/xbits=%d", deg, x), poly.New(c...), pt, uint(x)})
		}
	}
	shapes = append(shapes, zeroAllocShapes()...)
	shapes = append(shapes, fallbackShape())
	for _, sh := range append(shapes, highPrecisionShapes()...) {
		b.Run(sh.name+"/value", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				evalSink = sh.p.EvalScaled(sh.a, sh.s)
			}
		})
		var c metrics.Counters
		for _, ctx := range []metrics.Ctx{{}, {C: &c, Phase: metrics.PhaseBisection}, {Profile: mp.Fast}} {
			name := sh.name + "/sign"
			if ctx.C != nil {
				name += "-counted"
			}
			if ctx.Profile == mp.Fast {
				name += "-fast"
			}
			b.Run(name, func(b *testing.B) {
				var ev poly.Evaluator
				ev.SignAt(ctx, sh.p, sh.a, sh.s)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					signSink = ev.SignAt(ctx, sh.p, sh.a, sh.s)
				}
			})
		}
	}
}
