package poly

import (
	"math/rand"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/mp"
)

// Limits of the inputs the fuzz target draws, matching what rootd
// admits: degree 256, coefficients of 8192 decimal digits (27 213 bits)
// and points at scale µ + 16 for µ up to 4096.
const (
	screenFuzzMaxDegree = 256
	screenFuzzMaxBits   = 27213
	screenFuzzMaxScale  = 4096 + 16
)

// FuzzSignScreenVsExact checks the sign screen against the exact
// kernel. The screen may decline, but a sign it certifies must be the
// exact sign, and so must every step length it certifies, the bit
// length of E_k that the evaluation's tally records. The polynomials
// are built from near-coincident rational roots, or have random
// coefficients of up to 27 213 bits with zeros among them, or a few
// coefficients of wildly different widths; the points lie on a root,
// one unit at scale s next to it, at 0, or anywhere, at scales up to
// 4112.
func FuzzSignScreenVsExact(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		for pt := uint8(0); pt < 4; pt++ {
			f.Add(int64(kind)*4+int64(pt), kind, uint8(5+13*pt), uint16(60+1000*uint16(kind)), uint16(16+40*uint16(pt)), pt)
		}
	}
	f.Add(int64(99), uint8(0), uint8(40), uint16(64), uint16(4112), uint8(1))
	f.Add(int64(7), uint8(1), uint8(255), uint16(27213), uint16(24), uint8(3))
	f.Add(int64(8), uint8(2), uint8(60), uint16(27213), uint16(4112), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, kind, deg uint8, width, scale uint16, pt uint8) {
		checkScreen(t, rand.New(rand.NewSource(seed)), kind, int(deg)+1, int(width), uint(scale), pt)
	})
}

// checkScreen draws one polynomial and point as FuzzSignScreenVsExact
// describes, checks the screen on it, and reports whether the screen
// certified the evaluation with its step lengths.
func checkScreen(t *testing.T, r *rand.Rand, kind uint8, d, width int, s uint, pt uint8) bool {
	width = 1 + width%screenFuzzMaxBits
	s %= screenFuzzMaxScale + 1
	d = min(d, screenFuzzMaxDegree)
	// Keep the exact reference affordable: the last accumulator has
	// about d·max(bitlen a, s) bits, and each step costs its length
	// times a's.
	for d > 1 && d*d*(int(s)+64) > 1<<25 {
		d /= 2
	}

	var p *Poly
	var roots []*mp.Int // numerators at scale q
	var q uint
	switch kind % 3 {
	case 0: // near-coincident rational roots (n_i / 2^q), clustered
		q = uint(1 + r.Intn(min(width, 60)))
		base := mp.RandInt(r, int(q)+2)
		p = FromInt64s(1)
		for i := 0; i < d; i++ {
			n := new(mp.Int).Add(base, mp.NewInt(int64(r.Intn(3*d+1)-d)))
			if r.Intn(2) == 0 {
				n.Neg(n)
			}
			roots = append(roots, n)
			p = p.Mul(New(new(mp.Int).Neg(n), new(mp.Int).Lsh(mp.NewInt(1), q)))
		}
	case 1: // random coefficients, a quarter of them zero
		c := make([]*mp.Int, d+1)
		for i := range c {
			c[i] = new(mp.Int)
			if i == d || r.Intn(4) != 0 {
				c[i] = mp.RandInt(r, 1+r.Intn(width))
				if r.Intn(2) == 0 {
					c[i].Neg(c[i])
				}
			}
		}
		if c[d].IsZero() {
			c[d] = mp.NewInt(1)
		}
		p = New(c...)
	default: // a few coefficients of widths from 1 bit to the maximum
		c := make([]*mp.Int, d+1)
		for i := range c {
			c[i] = new(mp.Int)
		}
		for j := 0; j < 4; j++ {
			i := r.Intn(d + 1)
			c[i] = new(mp.Int).Lsh(mp.RandInt(r, 64), uint(r.Intn(width)))
		}
		c[d] = mp.NewInt(int64(1 + r.Intn(7)))
		p = New(c...)
	}

	var a *mp.Int
	switch pt % 4 {
	case 0:
		a = new(mp.Int)
	case 1, 2:
		if len(roots) > 0 {
			if s < q {
				s = q
			}
			a = new(mp.Int).Lsh(roots[r.Intn(len(roots))], s-q)
			if pt%4 == 2 {
				a.Add(a, mp.NewInt(int64(2*r.Intn(2)-1)))
			}
			break
		}
		fallthrough
	default:
		a = mp.RandInt(r, 1+r.Intn(int(s)+64))
		if r.Intn(2) == 0 {
			a.Neg(a)
		}
	}
	return screenAgrees(t, p, a, s)
}

// screenAgrees runs the screen on p at a/2^s and fails t if it
// certifies a sign or a step length that the exact recurrence
// contradicts. It reports whether the screen certified the evaluation.
func screenAgrees(t *testing.T, p *Poly, a *mp.Int, s uint) bool {
	t.Helper()
	d := p.Degree()
	var h mp.Horner
	h.Reserve(p.MaxCoeffBits() + 64 + d*max(a.BitLen(), int(s)))
	h.Set(p.c[d])
	lens := make([]int, d) // lens[k] = bitlen(E_k)
	for k := 1; k <= d; k++ {
		lens[k-1] = h.BitLen()
		h.Step(a, p.c[d-k], uint(k)*s)
	}
	want := h.Sign()

	var c metrics.Counters
	ctx := metrics.Ctx{C: &c, Phase: metrics.PhaseSieve}
	var e Evaluator
	e.steps.reset(ctx, a.BitLen())
	sign, ok := e.screen(p, a, s, true)
	if ok && sign != want {
		t.Fatalf("screen certified sign %d, exact %d: p = %v at %v/2^%d", sign, want, p, a, s)
	}
	// Without lengths to certify the screen may decide more, never
	// differently.
	if sg, ok2 := e.screen(p, a, s, false); ok2 && sg != want || ok && !ok2 {
		t.Fatalf("uncounted screen: sign %d ok %v, counted ok %v, exact %d", sg, ok2, ok, want)
	}
	if !ok {
		return false
	}
	// The length of E_k is the last one certified for the polynomial
	// of degree k+1 made of p's top coefficients: its screen runs the
	// same operations as p's for steps 1..k.
	for k := 1; k < d; k++ {
		top := &Poly{c: p.c[d-k-1:]}
		e.steps.reset(ctx, a.BitLen())
		e.screen(top, a, s, true)
		if got := e.steps.lens[e.steps.n-1]; got != lens[k] {
			t.Fatalf("screen certified bitlen(E_%d) = %d, exact %d: p = %v at %v/2^%d", k, got, lens[k], p, a, s)
		}
	}
	// The tally of a screened sign equals the exact recurrence's.
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		var cs, cx metrics.Counters
		if e.SignAt(metrics.Ctx{C: &cs, Profile: pr}, p, a, s) != want {
			t.Fatalf("SignAt disagrees with the exact sign")
		}
		p.EvalScaledCtx(metrics.Ctx{C: &cx, Profile: pr}, a, s)
		if got, exact := cs.Snapshot(), cx.Snapshot(); got.Phases != exact.Phases {
			t.Fatalf("%v: screened sign recorded %+v, exact evaluation %+v", pr, got.Phases[0], exact.Phases[0])
		}
	}
	return true
}
