package mp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// oracle converts an Int to big.Int via the decimal string, exercising an
// independent code path from ToBig.
func oracleFromString(t *testing.T, z *Int) *big.Int {
	t.Helper()
	b, ok := new(big.Int).SetString(z.String(), 10)
	if !ok {
		t.Fatalf("oracle: cannot parse %q", z.String())
	}
	return b
}

func TestSetInt64RoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 1<<31 - 1, 1 << 31, -(1 << 31), 1<<62 + 12345, -(1 << 62), 1<<63 - 1, -(1 << 63) + 1}
	for _, v := range cases {
		z := NewInt(v)
		if got := z.Int64(); got != v {
			t.Errorf("round trip %d: got %d", v, got)
		}
		if !z.IsInt64() {
			t.Errorf("IsInt64(%d) = false", v)
		}
	}
}

func TestMinInt64(t *testing.T) {
	const min = -1 << 63
	z := NewInt(min)
	if z.String() != "-9223372036854775808" {
		t.Fatalf("MinInt64 string: %s", z)
	}
	if !z.IsInt64() || z.Int64() != min {
		t.Fatalf("MinInt64 round trip failed: %d", z.Int64())
	}
}

func TestIsInt64Boundary(t *testing.T) {
	z := new(Int).Lsh(NewInt(1), 63) // 2^63
	if z.IsInt64() {
		t.Error("2^63 should not fit in int64")
	}
	z.Neg(z) // -2^63
	if !z.IsInt64() {
		t.Error("-2^63 should fit in int64")
	}
	z.Sub(z, NewInt(1)) // -2^63-1
	if z.IsInt64() {
		t.Error("-2^63-1 should not fit in int64")
	}
}

func TestBigRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		z := RandInt(r, 1+r.Intn(400))
		b := z.ToBig()
		z2 := new(Int).SetBig(b)
		if z.Cmp(z2) != 0 {
			t.Fatalf("big round trip: %s != %s", z, z2)
		}
		if b.String() != z.String() {
			t.Fatalf("string mismatch: %s vs %s", b, z)
		}
	}
}

func TestArithmeticAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x := RandInt(r, 1+r.Intn(300))
		y := RandInt(r, 1+r.Intn(300))
		bx, by := x.ToBig(), y.ToBig()

		if got, want := new(Int).Add(x, y).ToBig(), new(big.Int).Add(bx, by); got.Cmp(want) != 0 {
			t.Fatalf("Add(%s,%s)=%s want %s", x, y, got, want)
		}
		if got, want := new(Int).Sub(x, y).ToBig(), new(big.Int).Sub(bx, by); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%s,%s)=%s want %s", x, y, got, want)
		}
		if got, want := new(Int).Mul(x, y).ToBig(), new(big.Int).Mul(bx, by); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%s,%s)=%s want %s", x, y, got, want)
		}
		if !y.IsZero() {
			q, rem := new(Int).QuoRem(x, y, new(Int))
			bq, br := new(big.Int).QuoRem(bx, by, new(big.Int))
			if q.ToBig().Cmp(bq) != 0 || rem.ToBig().Cmp(br) != 0 {
				t.Fatalf("QuoRem(%s,%s) = (%s,%s) want (%s,%s)", x, y, q, rem, bq, br)
			}
		}
	}
}

func TestDivisionStress(t *testing.T) {
	// Exercise Algorithm D's corner cases: operands built to trigger the
	// qhat overestimate and add-back branches.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		// Divisors with high limb close to the normalization boundary.
		y := RandNonNeg(r, 64+r.Intn(200))
		if y.IsZero() {
			continue
		}
		// Numerators that are small multiples of y plus a small remainder
		// often hit qhat == base-1 paths.
		k := RandNonNeg(r, 1+r.Intn(160))
		rem := RandNonNeg(r, y.BitLen()-1)
		x := new(Int).Mul(y, k)
		x.Add(x, rem)
		q, got := new(Int).QuoRem(x, y, new(Int))
		bq, br := new(big.Int).QuoRem(x.ToBig(), y.ToBig(), new(big.Int))
		if q.ToBig().Cmp(bq) != 0 || got.ToBig().Cmp(br) != 0 {
			t.Fatalf("QuoRem(%s,%s) mismatch", x, y)
		}
	}
}

func TestDivisionAddBackCase(t *testing.T) {
	// Knuth's classic add-back trigger: u = B^4/2 - 1 style patterns with
	// B = 2^32 limbs.
	u := &Int{abs: nat{0xffffffff, 0xffffffff, 0x7fffffff}}
	v := &Int{abs: nat{0xffffffff, 0x80000000}}
	q, r := new(Int).QuoRem(u, v, new(Int))
	bq, br := new(big.Int).QuoRem(u.ToBig(), v.ToBig(), new(big.Int))
	if q.ToBig().Cmp(bq) != 0 || r.ToBig().Cmp(br) != 0 {
		t.Fatalf("add-back case: got (%s,%s) want (%s,%s)", q, r, bq, br)
	}
}

func TestQuoRemSignConventions(t *testing.T) {
	cases := [][4]int64{
		{7, 3, 2, 1}, {-7, 3, -2, -1}, {7, -3, -2, 1}, {-7, -3, 2, -1},
		{6, 3, 2, 0}, {-6, 3, -2, 0}, {0, 5, 0, 0},
	}
	for _, c := range cases {
		q, r := new(Int).QuoRem(NewInt(c[0]), NewInt(c[1]), new(Int))
		if q.Int64() != c[2] || r.Int64() != c[3] {
			t.Errorf("QuoRem(%d,%d) = (%s,%s), want (%d,%d)", c[0], c[1], q, r, c[2], c[3])
		}
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		x := RandInt(r, 1+r.Intn(300))
		s := uint(r.Intn(130))
		if got, want := new(Int).Lsh(x, s).ToBig(), new(big.Int).Lsh(x.ToBig(), s); got.Cmp(want) != 0 {
			t.Fatalf("Lsh(%s,%d)", x, s)
		}
		// Rsh uses floor semantics, like big.Int's Rsh on two's complement.
		if got, want := new(Int).Rsh(x, s).ToBig(), new(big.Int).Rsh(x.ToBig(), s); got.Cmp(want) != 0 {
			t.Fatalf("Rsh(%s,%d) = %s want %s", x, s, got, want)
		}
	}
}

func TestRshFloorNegative(t *testing.T) {
	cases := []struct {
		x    int64
		s    uint
		want int64
	}{
		{-7, 1, -4}, {-8, 1, -4}, {-1, 5, -1}, {-32, 5, -1}, {-33, 5, -2}, {7, 1, 3},
	}
	for _, c := range cases {
		if got := new(Int).Rsh(NewInt(c.x), c.s).Int64(); got != c.want {
			t.Errorf("Rsh(%d,%d) = %d, want %d", c.x, c.s, got, c.want)
		}
	}
}

func TestDivExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x := RandInt(r, 1+r.Intn(200))
		y := RandInt(r, 1+r.Intn(100))
		if y.IsZero() {
			continue
		}
		p := new(Int).Mul(x, y)
		if got := new(Int).DivExact(p, y); got.Cmp(x) != 0 {
			t.Fatalf("DivExact(%s,%s) = %s, want %s", p, y, got, x)
		}
	}
}

func TestDivExactPanicsOnInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivExact(7,2) did not panic")
		}
	}()
	new(Int).DivExact(NewInt(7), NewInt(2))
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	new(Int).Quo(NewInt(1), NewInt(0))
}

func TestGCD(t *testing.T) {
	cases := [][3]int64{{12, 18, 6}, {0, 5, 5}, {5, 0, 5}, {0, 0, 0}, {-12, 18, 6}, {17, 13, 1}, {-4, -6, 2}}
	for _, c := range cases {
		if got := new(Int).GCD(NewInt(c[0]), NewInt(c[1])).Int64(); got != c[2] {
			t.Errorf("GCD(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {-3, 2}, {255, 8}, {256, 9}, {1 << 40, 41}}
	for _, c := range cases {
		if got := NewInt(c.v).BitLen(); got != c.want {
			t.Errorf("BitLen(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestAliasing(t *testing.T) {
	x := NewInt(100)
	x.Add(x, x)
	if x.Int64() != 200 {
		t.Errorf("x.Add(x,x) = %s", x)
	}
	x.Mul(x, x)
	if x.Int64() != 40000 {
		t.Errorf("x.Mul(x,x) = %s", x)
	}
	x.Sub(x, x)
	if !x.IsZero() {
		t.Errorf("x.Sub(x,x) = %s", x)
	}
	y := NewInt(17)
	y.Set(y)
	if y.Int64() != 17 {
		t.Errorf("y.Set(y) = %s", y)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		x := RandInt(r, 1+r.Intn(500))
		got, err := new(Int).SetString(x.String())
		if err != nil {
			t.Fatalf("SetString(%q): %v", x.String(), err)
		}
		if got.Cmp(x) != 0 {
			t.Fatalf("parse round trip: %s != %s", got, x)
		}
	}
}

func TestSetStringErrors(t *testing.T) {
	for _, s := range []string{"", "-", "+", "12a", "1 2", "0x10", "--3"} {
		if _, err := new(Int).SetString(s); err == nil {
			t.Errorf("SetString(%q) succeeded, want error", s)
		}
	}
}

func TestSetStringValues(t *testing.T) {
	cases := map[string]string{"0": "0", "-0": "0", "+42": "42", "0007": "7", "-000": "0"}
	for in, want := range cases {
		z, err := new(Int).SetString(in)
		if err != nil {
			t.Fatalf("SetString(%q): %v", in, err)
		}
		if z.String() != want {
			t.Errorf("SetString(%q) = %s, want %s", in, z, want)
		}
	}
}

// genInt adapts RandInt for testing/quick.
func genInt(r *rand.Rand, maxBits int) *Int {
	return RandInt(r, 1+r.Intn(maxBits))
}

func TestQuickRingAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Commutativity and associativity of + and *.
	comm := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := genInt(r, 256), genInt(r, 256), genInt(r, 256)
		if new(Int).Add(a, b).Cmp(new(Int).Add(b, a)) != 0 {
			return false
		}
		if new(Int).Mul(a, b).Cmp(new(Int).Mul(b, a)) != 0 {
			return false
		}
		l := new(Int).Add(new(Int).Add(a, b), c)
		rr := new(Int).Add(a, new(Int).Add(b, c))
		if l.Cmp(rr) != 0 {
			return false
		}
		lm := new(Int).Mul(new(Int).Mul(a, b), c)
		rm := new(Int).Mul(a, new(Int).Mul(b, c))
		if lm.Cmp(rm) != 0 {
			return false
		}
		// Distributivity.
		d1 := new(Int).Mul(a, new(Int).Add(b, c))
		d2 := new(Int).Add(new(Int).Mul(a, b), new(Int).Mul(a, c))
		return d1.Cmp(d2) == 0
	}
	if err := quick.Check(comm, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDivModIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := genInt(r, 400)
		y := genInt(r, 200)
		if y.IsZero() {
			return true
		}
		q, rem := new(Int).QuoRem(x, y, new(Int))
		// x == q*y + rem, |rem| < |y|, sign(rem) in {0, sign(x)}.
		back := new(Int).Mul(q, y)
		back.Add(back, rem)
		if back.Cmp(x) != 0 {
			return false
		}
		if rem.CmpAbs(y) >= 0 {
			return false
		}
		return rem.IsZero() || rem.Sign() == x.Sign()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftInverse(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		x := genInt(r, 300)
		s := uint(sRaw) % 200
		// (x << s) >> s == x, for either sign.
		y := new(Int).Lsh(x, s)
		return new(Int).Rsh(y, s).Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKaratsubaMatchesSchoolbook(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		x := RandNonNeg(r, 500+r.Intn(4000))
		y := RandNonNeg(r, 500+r.Intn(4000))
		basic := natMulBasic(x.abs, y.abs)
		kar := natMulFast(x.abs, y.abs)
		if natCmp(basic, kar) != 0 {
			t.Fatalf("karatsuba mismatch at %d bits × %d bits", x.BitLen(), y.BitLen())
		}
	}
}

func TestKaratsubaUnbalanced(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		x := RandNonNeg(r, 100+r.Intn(500))
		y := RandNonNeg(r, 3000+r.Intn(3000))
		if natCmp(natMulBasic(x.abs, y.abs), natMulFast(x.abs, y.abs)) != 0 {
			t.Fatalf("unbalanced karatsuba mismatch")
		}
	}
}

// TestKaratsubaExtremeUnbalanced exercises the block-decomposition path
// (len(x) ≫ len(y)) at sizes where the old min-split recursion
// degenerated, plus threshold-straddling and degenerate-split shapes.
func TestKaratsubaExtremeUnbalanced(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	kar := 2 * kar64Threshold // Karatsuba's threshold in 32-bit limbs
	shapes := [][2]int{
		{24 * limbBits, 10000 * limbBits}, // the shape from the bug report
		{kar * limbBits, 50 * kar * limbBits},
		{(kar + 1) * limbBits, (2*kar + 1) * limbBits},
		{700, 700 * 37},
		{2*kar*limbBits - 1, 2 * kar * limbBits}, // m == len(y) degenerate split
	}
	for _, s := range shapes {
		x := RandNonNeg(r, s[0])
		y := RandNonNeg(r, s[1])
		if natCmp(natMulBasic(x.abs, y.abs), natMulFast(x.abs, y.abs)) != 0 {
			t.Fatalf("mismatch at %d bits × %d bits", s[0], s[1])
		}
		// Blocks of the long operand that are all zero must be skipped
		// correctly: zero a middle stretch of y.
		for i := len(y.abs) / 3; i < 2*len(y.abs)/3; i++ {
			y.abs[i] = 0
		}
		if natCmp(natMulBasic(x.abs, y.abs), natMulFast(x.abs, y.abs)) != 0 {
			t.Fatalf("zero-block mismatch at %d bits × %d bits", s[0], s[1])
		}
	}
}

// TestFastDivMatchesKnuth cross-checks Burnikel–Ziegler division against
// Algorithm D across balanced, unbalanced, and threshold-straddling
// shapes, including exact divisions and remainders near the divisor.
func TestFastDivMatchesKnuth(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tb := fastDivThreshold * limbBits
	shapes := [][2]int{
		{4 * tb, 2 * tb},       // just past the threshold on both axes
		{8 * tb, 2 * tb},       // long quotient
		{3 * tb, tb + 1},       // divisor barely over threshold
		{16 * tb, 5 * tb},      // odd base after padding
		{2*tb + 17, tb + tb/2}, // ragged sizes
	}
	for _, s := range shapes {
		u := RandNonNeg(r, s[0])
		v := RandNonNeg(r, s[1])
		if v.IsZero() {
			continue
		}
		q1, r1 := new(Int).QuoRemProfile(Schoolbook, u, v, new(Int))
		q2, r2 := new(Int).QuoRemProfile(Fast, u, v, new(Int))
		if q1.Cmp(q2) != 0 || r1.Cmp(r2) != 0 {
			t.Fatalf("div mismatch at %d / %d bits", s[0], s[1])
		}
		// Exact division: u2 = q1*v must divide with zero remainder.
		u2 := new(Int).MulProfile(Fast, q1, v)
		q3, r3 := new(Int).QuoRemProfile(Fast, u2, v, new(Int))
		if q3.Cmp(q1) != 0 || !r3.IsZero() {
			t.Fatalf("exact div mismatch at %d / %d bits", s[0], s[1])
		}
		// Remainder one below the divisor: u3 = q1*v + (v-1).
		vm1 := new(Int).Sub(v, NewInt(1))
		u3 := new(Int).Add(u2, vm1)
		q4, r4 := new(Int).QuoRemProfile(Fast, u3, v, new(Int))
		if q4.Cmp(q1) != 0 || r4.Cmp(vm1) != 0 {
			t.Fatalf("max-remainder div mismatch at %d / %d bits", s[0], s[1])
		}
	}
}

// TestProfileParse covers the Profile accessors used by config plumbing.
func TestProfileParse(t *testing.T) {
	for _, c := range []struct {
		s    string
		want Profile
	}{{"schoolbook", Schoolbook}, {"paper", Schoolbook}, {"fast", Fast}} {
		got, err := ParseProfile(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseProfile(%q) = %v, %v; want %v", c.s, got, err, c.want)
		}
	}
	if _, err := ParseProfile("quantum"); err == nil {
		t.Error("ParseProfile(quantum) did not fail")
	}
	if !Schoolbook.Valid() || !Fast.Valid() || Profile(250).Valid() {
		t.Error("Profile.Valid misclassifies")
	}
	if Schoolbook.String() != "schoolbook" || Fast.String() != "fast" {
		t.Error("Profile.String mismatch")
	}
}

// TestProfileOpsAliased exercises the profile-dispatched Int operations
// with aliased receivers, which must behave like their math/big analogues.
func TestProfileOpsAliased(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, pr := range []Profile{Schoolbook, Fast} {
		for i := 0; i < 20; i++ {
			x := RandNonNeg(r, 2000+r.Intn(3000))
			// z.MulProfile(z, z) == x².
			z := new(Int).Set(x)
			z.MulProfile(pr, z, z)
			want := new(Int).Sqr(x)
			if z.Cmp(want) != 0 {
				t.Fatalf("%v: aliased square mismatch", pr)
			}
			// z.QuoRemProfile(z, y, r) with z aliasing the dividend.
			y := RandNonNeg(r, 1500+r.Intn(1000))
			if y.IsZero() {
				continue
			}
			q := new(Int).Set(want)
			var rem Int
			q.QuoRemProfile(pr, q, y, &rem)
			wq, wr := new(Int).QuoRem(want, y, new(Int))
			if q.Cmp(wq) != 0 || rem.Cmp(wr) != 0 {
				t.Fatalf("%v: aliased quorem mismatch", pr)
			}
			// DivExactProfile round-trip.
			prod := new(Int).MulProfile(pr, want, y)
			if new(Int).DivExactProfile(pr, prod, y).Cmp(want) != 0 {
				t.Fatalf("%v: DivExactProfile mismatch", pr)
			}
		}
	}
}

func TestTrailingZeros(t *testing.T) {
	cases := []struct {
		v    int64
		want uint
	}{{1, 0}, {2, 1}, {8, 3}, {-8, 3}, {12, 2}, {1 << 40, 40}}
	for _, c := range cases {
		if got := NewInt(c.v).TrailingZeros(); got != c.want {
			t.Errorf("TrailingZeros(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBit(t *testing.T) {
	z := NewInt(0b1011010)
	want := []uint{0, 1, 0, 1, 1, 0, 1, 0, 0}
	for i, w := range want {
		if got := z.Bit(uint(i)); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestNegZeroNormalization(t *testing.T) {
	z := new(Int).Neg(NewInt(0))
	if z.Sign() != 0 || z.String() != "0" {
		t.Errorf("Neg(0) not canonical zero: %s sign %d", z, z.Sign())
	}
	z = new(Int).Sub(NewInt(5), NewInt(5))
	if z.Sign() != 0 {
		t.Errorf("5-5 has sign %d", z.Sign())
	}
	z = new(Int).MulInt64(NewInt(-3), 0)
	if z.Sign() != 0 {
		t.Errorf("-3*0 has sign %d", z.Sign())
	}
}

// TestShiftedOpsMatchBig checks AddLsh, SubLsh and CmpLsh, which align
// two operands as they read them, and the in-place Rsh against math/big
// across limb boundaries, signs and zero.
func TestShiftedOpsMatchBig(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		x, y := genInt(r, 300), genInt(r, 300)
		if r.Intn(8) == 0 {
			x = new(Int)
		}
		xs, ys := uint(r.Intn(100)), uint(r.Intn(100))
		bx := new(big.Int).Lsh(x.ToBig(), xs)
		by := new(big.Int).Lsh(y.ToBig(), ys)
		if got := new(Int).AddLsh(x, xs, y, ys).ToBig(); got.Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("AddLsh(%s, %d, %s, %d) = %s", x, xs, y, ys, got)
		}
		if got := new(Int).SubLsh(x, xs, y, ys).ToBig(); got.Cmp(new(big.Int).Sub(bx, by)) != 0 {
			t.Fatalf("SubLsh(%s, %d, %s, %d) = %s", x, xs, y, ys, got)
		}
		if got, want := CmpLsh(x, xs, y, ys), bx.Cmp(by); got != want {
			t.Fatalf("CmpLsh(%s, %d, %s, %d) = %d, want %d", x, xs, y, ys, got, want)
		}
		if got := CmpLsh(x, xs+ys, x, xs+ys); got != 0 {
			t.Fatalf("CmpLsh of equal values = %d", got)
		}
		z := new(Int).Set(x)
		if got := z.AddLsh(z, xs, z, ys).ToBig(); got.Cmp(new(big.Int).Add(new(big.Int).Lsh(x.ToBig(), xs), new(big.Int).Lsh(x.ToBig(), ys))) != 0 {
			t.Fatalf("aliased AddLsh(%s, %d, %d) = %s", x, xs, ys, got)
		}
		z.Set(x)
		if got, want := z.Rsh(z, xs).ToBig(), new(big.Int).Rsh(x.ToBig(), xs); got.Cmp(want) != 0 {
			t.Fatalf("in-place Rsh(%s, %d) = %s, want %s", x, xs, got, want)
		}
	}
}

// TestFloat checks Int.Float's contract against math/big: m·2^e has
// z's sign, 1 ≤ |m| ≤ 2, and lies within (2^-53 + 2^-63)·|z| of z, for
// one-, two- and many-limb values, powers of two and all-ones values
// whose rounding carries into the next binade.
func TestFloat(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var xs []*Int
	for bits := 1; bits <= 200; bits++ {
		ones := new(Int).Sub(new(Int).Lsh(NewInt(1), uint(bits)), NewInt(1))
		xs = append(xs, RandNonNeg(r, bits), new(Int).Lsh(NewInt(1), uint(bits-1)), ones, new(Int).Neg(ones))
	}
	if m, e := new(Int).Float(); m != 0 || e != 0 {
		t.Errorf("Float(0) = %v, %d; want 0, 0", m, e)
	}
	tol := new(big.Float).SetMantExp(big.NewFloat(1+0x1p-10), -53) // 2^-53 + 2^-63
	for _, x := range xs {
		if x.IsZero() {
			continue
		}
		m, e := x.Float()
		if am := math.Abs(m); am < 1 || am > 2 || (m < 0) != (x.Sign() < 0) {
			t.Fatalf("Float(%v) = %v·2^%d: mantissa out of range or sign wrong", x, m, e)
		}
		// 1024 bits hold every value here exactly.
		exact := new(big.Float).SetPrec(1024).SetInt(x.ToBig())
		got := new(big.Float).SetPrec(1024).SetMantExp(big.NewFloat(m), e)
		diff := new(big.Float).SetPrec(1024).Sub(got, exact)
		bound := new(big.Float).SetPrec(1024).Mul(tol, new(big.Float).Abs(exact))
		if diff.Abs(diff).Cmp(bound) > 0 {
			t.Fatalf("Float(%v) = %v·2^%d, off by %v > %v", x, m, e, diff, bound)
		}
	}
}
