package poly

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"realroots/internal/metrics"
	"realroots/internal/mp"
)

func TestYunSimple(t *testing.T) {
	// (x-1)(x-2)²(x+3)³.
	p := FromRoots(mp.NewInt(1)).
		Mul(FromRoots(mp.NewInt(2), mp.NewInt(2))).
		Mul(FromRoots(mp.NewInt(-3), mp.NewInt(-3), mp.NewInt(-3)))
	fs := Yun(p)
	if len(fs) != 3 {
		t.Fatalf("got %d factors", len(fs))
	}
	if !fs[0].Equal(FromRoots(mp.NewInt(1))) {
		t.Errorf("u1 = %s", fs[0])
	}
	if !fs[1].Equal(FromRoots(mp.NewInt(2))) {
		t.Errorf("u2 = %s", fs[1])
	}
	if !fs[2].Equal(FromRoots(mp.NewInt(-3))) {
		t.Errorf("u3 = %s", fs[2])
	}
}

func TestYunSquarefreeInput(t *testing.T) {
	p := FromRoots(mp.NewInt(0), mp.NewInt(4), mp.NewInt(-9))
	fs := Yun(p)
	if len(fs) != 1 || !fs[0].Equal(p) {
		t.Fatalf("Yun(squarefree) = %v", fs)
	}
}

func TestYunGapMultiplicities(t *testing.T) {
	// Only multiplicities 1 and 3 present: u2 must be the constant 1.
	p := FromRoots(mp.NewInt(5)).Mul(FromRoots(mp.NewInt(-1), mp.NewInt(-1), mp.NewInt(-1)))
	fs := Yun(p)
	if len(fs) != 3 {
		t.Fatalf("got %d factors", len(fs))
	}
	if fs[1].Degree() != 0 {
		t.Errorf("u2 = %s, want a constant", fs[1])
	}
	if !fs[2].Equal(FromRoots(mp.NewInt(-1))) {
		t.Errorf("u3 = %s", fs[2])
	}
}

func TestYunEdgeCases(t *testing.T) {
	if Yun(Zero()) != nil {
		t.Error("Yun(0) != nil")
	}
	if Yun(FromInt64s(42)) != nil {
		t.Error("Yun(const) != nil")
	}
	fs := Yun(FromInt64s(-3, 6)) // 6x-3, content 3
	if len(fs) != 1 || !fs[0].Equal(FromInt64s(-1, 2)) {
		t.Errorf("Yun(6x-3) = %v", fs)
	}
}

func TestQuickYunReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Build ∏ (x - r_k)^{m_k} with random multiplicities.
		nroots := 1 + r.Intn(4)
		seen := map[int64]bool{}
		p := FromInt64s(1)
		mult := map[int64]int{}
		for len(mult) < nroots {
			v := int64(r.Intn(21) - 10)
			if seen[v] {
				continue
			}
			seen[v] = true
			m := 1 + r.Intn(3)
			mult[v] = m
			for j := 0; j < m; j++ {
				p = p.MulLinear(mp.NewInt(v))
			}
		}
		fs := Yun(p)
		// Reconstruct ∏ u_k^k and compare with p (both monic here).
		re := FromInt64s(1)
		for k, u := range fs {
			for j := 0; j <= k; j++ {
				re = re.Mul(u)
			}
		}
		if !re.Equal(p) {
			return false
		}
		// Each u_k contains exactly the multiplicity-(k+1) roots.
		for v, m := range mult {
			if fs[m-1].Eval(mp.NewInt(v)).Sign() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestYunFromGCDMatchesYun seeds the decomposition with a scaled,
// negated gcd — as a remainder sequence carries it — and expects Yun's
// own factors under both profiles, with nothing recorded in the
// caller's counters.
func TestYunFromGCDMatchesYun(t *testing.T) {
	p := FromRoots(mp.NewInt(1), mp.NewInt(-4), mp.NewInt(-4), mp.NewInt(9), mp.NewInt(9), mp.NewInt(9), mp.NewInt(0))
	want := Yun(p)
	g := GCD(p, p.Derivative()).ScaleInt(mp.NewInt(-12))
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		var c metrics.Counters
		got, err := YunFromGCD(metrics.Ctx{C: &c, Profile: pr}, p, g, nil)
		if err != nil {
			t.Fatalf("profile %v: %v", pr, err)
		}
		if tot := c.Snapshot().Total(); tot.Muls != 0 || tot.Divs != 0 || c.BitOps() != 0 {
			t.Errorf("profile %v: recorded %+v", pr, tot)
		}
		if len(got) != len(want) {
			t.Fatalf("profile %v: %d factors, want %d", pr, len(got), len(want))
		}
		for k := range want {
			if !got[k].Equal(want[k]) {
				t.Errorf("profile %v: u%d = %s, want %s", pr, k+1, got[k], want[k])
			}
		}
	}
}

// TestYunFromGCDStops checks that the decomposition polls stop during
// its gcd steps and returns stop's error as soon as it fires.
func TestYunFromGCDStops(t *testing.T) {
	errStop := errors.New("stop")
	p := FromRoots(mp.NewInt(1), mp.NewInt(2), mp.NewInt(2), mp.NewInt(-3), mp.NewInt(-3), mp.NewInt(-3),
		mp.NewInt(5), mp.NewInt(5), mp.NewInt(7))
	g := GCD(p, p.Derivative())
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		calls := 0
		stop := func() error {
			calls++
			if calls == 3 {
				return errStop
			}
			return nil
		}
		fs, err := YunFromGCD(metrics.Ctx{Profile: pr}, p, g, stop)
		if !errors.Is(err, errStop) || fs != nil {
			t.Fatalf("profile %v: got %v, %v; want the stop error", pr, fs, err)
		}
		if calls != 3 {
			t.Errorf("profile %v: stop polled %d times, want 3 (no poll after it fired)", pr, calls)
		}
	}
}
