package dyadic

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/mp"
)

func randDyadic(r *rand.Rand) Dyadic {
	return New(mp.RandInt(r, 1+r.Intn(60)), uint(r.Intn(40)))
}

func rat(d Dyadic) *big.Rat { return d.Rat() }

func TestNormalization(t *testing.T) {
	d := New(mp.NewInt(8), 3) // 8/8 = 1
	if d.Scale() != 0 || d.Num().Int64() != 1 {
		t.Errorf("8/2^3 not normalized: %v", d)
	}
	d = New(mp.NewInt(6), 2) // 6/4 = 3/2
	if d.Scale() != 1 || d.Num().Int64() != 3 {
		t.Errorf("6/2^2 not normalized: %v", d)
	}
	d = New(mp.NewInt(0), 17)
	if d.Scale() != 0 || d.Sign() != 0 {
		t.Errorf("0/2^17 not normalized: %v", d)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var d Dyadic
	if d.Sign() != 0 || d.String() != "0" {
		t.Errorf("zero value: %v sign %d", d, d.Sign())
	}
	if got := d.Add(FromInt64(3)); got.Num().Int64() != 3 {
		t.Errorf("0+3 = %v", got)
	}
}

func TestQuickFieldOpsMatchBigRat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randDyadic(r), randDyadic(r)
		if rat(a.Add(b)).Cmp(new(big.Rat).Add(rat(a), rat(b))) != 0 {
			return false
		}
		if rat(a.Sub(b)).Cmp(new(big.Rat).Sub(rat(a), rat(b))) != 0 {
			return false
		}
		if rat(a.Mul(b)).Cmp(new(big.Rat).Mul(rat(a), rat(b))) != 0 {
			return false
		}
		if a.Cmp(b) != rat(a).Cmp(rat(b)) {
			return false
		}
		return rat(a.Neg()).Cmp(new(big.Rat).Neg(rat(a))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMulPow2(t *testing.T) {
	d := New(mp.NewInt(3), 2) // 3/4
	if got := d.MulPow2(2); got.Cmp(FromInt64(3)) != 0 {
		t.Errorf("3/4·4 = %v", got)
	}
	if got := d.MulPow2(-3); !got.Equal(New(mp.NewInt(3), 5)) {
		t.Errorf("3/4·2^-3 = %v", got)
	}
	if got := d.MulPow2(10); got.Cmp(FromInt64(768)) != 0 {
		t.Errorf("3/4·2^10 = %v", got)
	}
	z := FromInt64(0)
	if got := z.MulPow2(5); got.Sign() != 0 {
		t.Errorf("0·2^5 = %v", got)
	}
}

func TestQuickMulPow2MatchesRat(t *testing.T) {
	f := func(seed int64, kRaw int8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randDyadic(r)
		k := int(kRaw) % 50
		got := rat(d.MulPow2(k))
		want := new(big.Rat).Set(rat(d))
		if k >= 0 {
			want.Mul(want, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(k))))
		} else {
			want.Quo(want, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(-k))))
		}
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMid(t *testing.T) {
	a, b := FromInt64(1), FromInt64(2)
	m := a.Mid(b)
	if !m.Equal(New(mp.NewInt(3), 1)) {
		t.Errorf("mid(1,2) = %v", m)
	}
}

func TestCeilGrid(t *testing.T) {
	cases := []struct {
		num   int64
		scale uint
		mu    uint
		want  string
	}{
		{5, 3, 1, "3/2^1"},   // 5/8 → ceil to halves = 1... wait 5/8 = 0.625 → ceil at 2^-1 grid = 1? No: ⌈2·0.625⌉/2 = ⌈1.25⌉/2 = 2/2 = 1
		{7, 3, 2, "1"},       // 7/8 = 0.875 → ⌈3.5⌉/4 = 4/4 = 1
		{-5, 3, 1, "-1/2^1"}, // -0.625 → ⌈-1.25⌉/2 = -1/2
		{3, 1, 3, "3/2^1"},   // already on grid
		{1, 0, 4, "1"},       // integer stays
	}
	// Fix first expectation: ⌈2·(5/8)⌉/2 = ⌈1.25⌉ / 2 = 2/2 = 1.
	cases[0].want = "1"
	for _, c := range cases {
		d := New(mp.NewInt(c.num), c.scale)
		if got := d.CeilGrid(c.mu).String(); got != c.want {
			t.Errorf("CeilGrid(%d/2^%d, µ=%d) = %s, want %s", c.num, c.scale, c.mu, got, c.want)
		}
	}
}

func TestQuickGridLaws(t *testing.T) {
	f := func(seed int64, muRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		d := randDyadic(r)
		mu := uint(muRaw) % 30
		up := d.CeilGrid(mu)
		dn := d.FloorGrid(mu)
		// FloorGrid ≤ d ≤ CeilGrid, both on the grid, within one step.
		if dn.Cmp(d) > 0 || up.Cmp(d) < 0 {
			return false
		}
		if !up.OnGrid(mu) || !dn.OnGrid(mu) {
			return false
		}
		if up.Sub(dn).Cmp(GridStep(mu)) > 0 {
			return false
		}
		// If d is on the grid, both round to d.
		if d.OnGrid(mu) {
			return up.Equal(d) && dn.Equal(d)
		}
		// Otherwise they differ by exactly one step.
		return up.Sub(dn).Equal(GridStep(mu))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestScaledNum(t *testing.T) {
	d := New(mp.NewInt(3), 2) // 3/4
	if got := d.ScaledNum(4); got.Int64() != 12 {
		t.Errorf("ScaledNum(3/4, 4) = %s, want 12", got)
	}
	if got := d.ScaledNum(2); got.Int64() != 3 {
		t.Errorf("ScaledNum(3/4, 2) = %s, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("ScaledNum below scale did not panic")
		}
	}()
	d.ScaledNum(1)
}

func TestDecimal(t *testing.T) {
	cases := []struct {
		d      Dyadic
		digits int
		want   string
	}{
		{New(mp.NewInt(1), 1), 4, "0.5000"},
		{New(mp.NewInt(-3), 2), 2, "-0.75"},
		{FromInt64(42), 0, "42"},
		{New(mp.NewInt(1), 3), 2, "0.12"}, // 0.125 truncated
		{New(mp.NewInt(-1), 4), 1, "-0.0"},
	}
	// -1/16 = -0.0625: one digit truncated toward zero = "-0.0".
	for _, c := range cases {
		if got := c.d.Decimal(c.digits); got != c.want {
			t.Errorf("Decimal(%v, %d) = %q, want %q", c.d, c.digits, got, c.want)
		}
	}
}

func TestFloat64(t *testing.T) {
	d := New(mp.NewInt(-5), 2)
	if got := d.Float64(); got != -1.25 {
		t.Errorf("Float64 = %v", got)
	}
}

func TestHalfAndGridStep(t *testing.T) {
	one := FromInt64(1)
	h := one.Half()
	if !h.Equal(GridStep(1)) {
		t.Errorf("1/2 = %v", h)
	}
	if !GridStep(0).Equal(one) {
		t.Errorf("GridStep(0) = %v", GridStep(0))
	}
}

// TestCmpZeroAlloc pins that comparing dyadics at unequal scales reads
// the numerators in place instead of aligning copies.
func TestCmpZeroAlloc(t *testing.T) {
	a := New(mp.NewInt(-0x2b7e151628aed2a7), 61)
	b := New(mp.NewInt(0x3243f6a8885a3), 17)
	c := New(new(mp.Int).Lsh(mp.NewInt(0x3243f6a8885a3), 44), 61)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || b.Cmp(c) != 0 {
		t.Fatalf("Cmp: %d %d %d", a.Cmp(b), b.Cmp(a), b.Cmp(c))
	}
	if n := testing.AllocsPerRun(100, func() { a.Cmp(b); b.Cmp(c) }); n != 0 {
		t.Errorf("Cmp at unequal scales: %.1f allocs, want 0", n)
	}
}
