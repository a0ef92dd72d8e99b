package mp

import (
	"bytes"
	"math/big"
	"testing"
)

func FuzzSetStringRoundTrip(f *testing.F) {
	f.Add("0")
	f.Add("-12345678901234567890123456789")
	f.Add("+999999999999999999")
	f.Add("007")
	f.Fuzz(func(t *testing.T, s string) {
		z, err := new(Int).SetString(s)
		if err != nil {
			return // malformed input is fine
		}
		// The oracle must agree, and re-parsing the rendering must be
		// idempotent.
		b, ok := new(big.Int).SetString(s, 10)
		if !ok {
			t.Fatalf("we parsed %q but math/big did not", s)
		}
		if z.ToBig().Cmp(b) != 0 {
			t.Fatalf("parse mismatch for %q: %s vs %s", s, z, b)
		}
		z2, err := new(Int).SetString(z.String())
		if err != nil || z2.Cmp(z) != 0 {
			t.Fatalf("round trip failed for %q", s)
		}
	})
}

func FuzzQuoRemIdentity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{0xff, 0xff, 0xff, 0xff, 0x80})
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x := new(Int).SetBig(new(big.Int).SetBytes(xb))
		y := new(Int).SetBig(new(big.Int).SetBytes(yb))
		if y.IsZero() {
			return
		}
		q, r := new(Int).QuoRem(x, y, new(Int))
		back := new(Int).Mul(q, y)
		back.Add(back, r)
		if back.Cmp(x) != 0 {
			t.Fatalf("q*y+r != x for x=%s y=%s", x, y)
		}
		if r.CmpAbs(y) >= 0 {
			t.Fatalf("|r| >= |y| for x=%s y=%s", x, y)
		}
		bq, br := new(big.Int).QuoRem(x.ToBig(), y.ToBig(), new(big.Int))
		if q.ToBig().Cmp(bq) != 0 || r.ToBig().Cmp(br) != 0 {
			t.Fatalf("oracle mismatch for x=%s y=%s", x, y)
		}
	})
}

// stretch expands a fuzz byte pattern by repetition so the resulting
// operand crosses the 2·kar64Threshold / fastDivThreshold limb counts
// that the subquadratic kernels switch on (raw fuzz inputs are capped at
// 64 bytes = 16 limbs, far below either threshold). Up to
// fastDivThreshold/4 repetitions of a 64-byte pattern make a
// 4·fastDivThreshold-limb operand, so a dividend can reach the
// Burnikel–Ziegler recursion, which needs 2·fastDivThreshold limbs.
func stretch(b []byte, rep uint16) []byte {
	if len(b) == 0 {
		return b
	}
	n := int(rep)%max(48, fastDivThreshold/4) + 1
	out := make([]byte, 0, n*len(b))
	for i := 0; i < n; i++ {
		out = append(out, b...)
	}
	return out
}

// FuzzFastMulVsBig cross-checks the Fast profile's multiplication
// against math/big on operands spanning the schoolbook/Karatsuba
// threshold, including aliased receivers (z.Op(z, z)).
func FuzzFastMulVsBig(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0xff, 0xfe}, uint16(40), uint16(3), false, true)
	f.Add([]byte{0xff}, []byte{0xff}, uint16(47), uint16(47), true, true)
	f.Add([]byte{7, 0, 0, 0, 1}, []byte{9}, uint16(2), uint16(40), false, false)
	f.Fuzz(func(t *testing.T, xb, yb []byte, xrep, yrep uint16, xneg, yneg bool) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x := new(Int).SetBig(new(big.Int).SetBytes(stretch(xb, xrep)))
		y := new(Int).SetBig(new(big.Int).SetBytes(stretch(yb, yrep)))
		if xneg {
			x.Neg(x)
		}
		if yneg {
			y.Neg(y)
		}
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		if got := new(Int).MulProfile(Fast, x, y); got.ToBig().Cmp(want) != 0 {
			t.Fatalf("fast mul mismatch at %d×%d bits", x.BitLen(), y.BitLen())
		}
		// Aliased: z.MulProfile(z, z) must square in place.
		wsq := new(big.Int).Mul(x.ToBig(), x.ToBig())
		z := new(Int).Set(x)
		if z.MulProfile(Fast, z, z); z.ToBig().Cmp(wsq) != 0 {
			t.Fatalf("fast aliased square mismatch at %d bits", x.BitLen())
		}
	})
}

// FuzzFastDivVsBig cross-checks the Fast profile's division against
// math/big on operands spanning the Burnikel–Ziegler threshold,
// including a receiver aliased with the dividend.
func FuzzFastDivVsBig(f *testing.F) {
	f.Add([]byte{9, 8, 7, 6, 5, 4}, []byte{1, 2, 3}, uint16(47), uint16(44), false)
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0xff, 0xff}, uint16(40), uint16(20), true)
	f.Add([]byte{1}, []byte{3}, uint16(47), uint16(2), false)
	// Past fastDivThreshold: a 1024-limb dividend by a 336-limb divisor.
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c, 0x99, 0x01}, 16), bytes.Repeat([]byte{0x7e, 0x11}, 32), uint16(63), uint16(20), true)
	f.Fuzz(func(t *testing.T, ub, vb []byte, urep, vrep uint16, uneg bool) {
		if len(ub) > 64 || len(vb) > 64 {
			return
		}
		u := new(Int).SetBig(new(big.Int).SetBytes(stretch(ub, urep)))
		v := new(Int).SetBig(new(big.Int).SetBytes(stretch(vb, vrep)))
		if v.IsZero() {
			return
		}
		if uneg {
			u.Neg(u)
		}
		wq, wr := new(big.Int).QuoRem(u.ToBig(), v.ToBig(), new(big.Int))
		q, r := new(Int).QuoRemProfile(Fast, u, v, new(Int))
		if q.ToBig().Cmp(wq) != 0 || r.ToBig().Cmp(wr) != 0 {
			t.Fatalf("fast div mismatch at %d/%d bits", u.BitLen(), v.BitLen())
		}
		// Aliased: quotient receiver aliasing the dividend.
		z := new(Int).Set(u)
		var rem Int
		z.QuoRemProfile(Fast, z, v, &rem)
		if z.ToBig().Cmp(wq) != 0 || rem.ToBig().Cmp(wr) != 0 {
			t.Fatalf("fast aliased div mismatch at %d/%d bits", u.BitLen(), v.BitLen())
		}
	})
}

// FuzzFastGCDVsBig cross-checks the Fast profile's binary GCD against
// math/big, including the receiver-aliases-operand pattern used by
// Poly.Content (g.GCDProfile(pr, g, ci)).
func FuzzFastGCDVsBig(f *testing.F) {
	f.Add([]byte{12}, []byte{18}, uint16(1), uint16(1), false)
	f.Add([]byte{0xff, 0, 0xff}, []byte{0xf0}, uint16(40), uint16(30), true)
	f.Add([]byte{6, 6, 6}, []byte{}, uint16(9), uint16(0), false)
	f.Fuzz(func(t *testing.T, xb, yb []byte, xrep, yrep uint16, xneg bool) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x := new(Int).SetBig(new(big.Int).SetBytes(stretch(xb, xrep)))
		y := new(Int).SetBig(new(big.Int).SetBytes(stretch(yb, yrep)))
		if xneg {
			x.Neg(x)
		}
		want := new(big.Int).GCD(nil, nil, new(big.Int).Abs(x.ToBig()), new(big.Int).Abs(y.ToBig()))
		if got := new(Int).GCDProfile(Fast, x, y); got.ToBig().Cmp(want) != 0 {
			t.Fatalf("fast gcd mismatch at %d,%d bits", x.BitLen(), y.BitLen())
		}
		z := new(Int).Set(x)
		if z.GCDProfile(Fast, z, y); z.ToBig().Cmp(want) != 0 {
			t.Fatalf("fast aliased gcd mismatch at %d,%d bits", x.BitLen(), y.BitLen())
		}
	})
}

// pack64 builds a packed 64-bit operand from a stretched fuzz pattern.
func pack64(b []byte, rep uint16) []uint64 {
	return pack(nil, new(Int).SetBig(new(big.Int).SetBytes(stretch(b, rep))).abs)
}

// FuzzToom3VsBig cross-checks the Toom-3 kernel directly against
// math/big. Direct calls mean the operands need not reach
// toom64Threshold, so the fuzzer explores the interpolation's
// sign/carry paths at every size the splitter accepts.
func FuzzToom3VsBig(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0xff, 0xfe}, uint16(40), uint16(40))
	f.Add([]byte{0xff}, []byte{0xff}, uint16(48), uint16(24))
	f.Add([]byte{7, 0, 0, 0, 1}, []byte{9, 0, 9}, uint16(30), uint16(17))
	f.Fuzz(func(t *testing.T, xb, yb []byte, xrep, yrep uint16) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x, y := pack64(xb, xrep), pack64(yb, yrep)
		if len(x) < len(y) {
			x, y = y, x
		}
		if len(y) == 0 {
			return
		}
		checkMul64(t, "fuzz/toom3", toom3Mul64(x, y, fastTiers), x, y)
	})
}

// FuzzNTTVsBig cross-checks the three-prime NTT kernel directly against
// math/big: the CRT reconstruction and digit accumulation must be exact
// for every digit pattern, not just random ones.
func FuzzNTTVsBig(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0xff, 0xfe}, uint16(40), uint16(40))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff}, uint16(47), uint16(47))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{1}, uint16(20), uint16(1))
	f.Fuzz(func(t *testing.T, xb, yb []byte, xrep, yrep uint16) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x, y := pack64(xb, xrep), pack64(yb, yrep)
		z := nttMul64(x, y, fastTiers)
		if z == nil {
			t.Fatalf("ntt refused a %d×%d-limb product far below its size cap", len(x), len(y))
		}
		checkMul64(t, "fuzz/ntt", z, x, y)
	})
}

func FuzzAddSubInverse(f *testing.F) {
	f.Add([]byte{1}, []byte{2}, false, true)
	f.Fuzz(func(t *testing.T, xb, yb []byte, xneg, yneg bool) {
		if len(xb) > 64 || len(yb) > 64 {
			return
		}
		x := new(Int).SetBig(new(big.Int).SetBytes(xb))
		y := new(Int).SetBig(new(big.Int).SetBytes(yb))
		if xneg {
			x.Neg(x)
		}
		if yneg {
			y.Neg(y)
		}
		s := new(Int).Add(x, y)
		if new(Int).Sub(s, y).Cmp(x) != 0 {
			t.Fatalf("(x+y)-y != x for x=%s y=%s", x, y)
		}
	})
}
