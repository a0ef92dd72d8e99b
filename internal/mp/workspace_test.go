package mp

import (
	"math/big"
	"math/rand"
	"testing"
)

// fuzzInt builds a signed operand from a stretched fuzz pattern.
func fuzzInt(b []byte, rep uint16, neg bool) *Int {
	x := new(Int).SetBig(new(big.Int).SetBytes(stretch(b, rep)))
	if neg {
		x.Neg(x)
	}
	return x
}

// FuzzDotDivVsBig cross-checks DotDiv against math/big under both
// profiles. The sum has up to four terms drawn from a, b and zero, with
// random signs, so products repeat and cancel; a term without a Y adds
// a alone. mode picks no division, an exact division by d (every term's
// X is scaled by d) or an inexact one (the exact dividend plus one),
// which must panic. Each case runs twice on one Scratch, so the second
// call reuses the first one's workspace.
func FuzzDotDivVsBig(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0xff, 0xfe}, []byte{7}, uint16(40), uint16(3), uint16(9), uint8(0x5a), uint8(1), true)
	f.Add([]byte{0xff}, []byte{0xff}, []byte{0xff, 1}, uint16(47), uint16(47), uint16(30), uint8(0x0f), uint8(2), false)
	f.Add([]byte{9, 8, 7}, []byte{6, 5}, []byte{4, 3, 2, 1}, uint16(120), uint16(90), uint16(100), uint8(0xc3), uint8(1), true)
	f.Add([]byte{1}, []byte{}, []byte{2}, uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, ab, bb, db []byte, arep, brep, drep uint16, signs, mode uint8, fast bool) {
		if len(ab) > 64 || len(bb) > 64 || len(db) > 64 {
			return
		}
		pr := Schoolbook
		if fast {
			pr = Fast
		}
		a, b := fuzzInt(ab, arep, signs&1 != 0), fuzzInt(bb, brep, signs&2 != 0)
		d := fuzzInt(db, drep, signs&4 != 0)
		zero := new(Int)
		pool := []*Int{a, b, zero, a}
		n := int(mode>>2)%4 + 1
		terms := make([]Term, n)
		want := new(big.Int)
		for i := range terms {
			x, y := pool[(int(signs)>>i)&3], pool[(int(signs)>>(i+1))&3]
			if i == 3 {
				y = nil
			}
			terms[i] = Term{X: x, Y: y, Neg: (signs>>(i+4))&1 != 0}
			p := x.ToBig()
			if y != nil {
				p.Mul(p, y.ToBig())
			}
			if terms[i].Neg {
				want.Sub(want, p)
			} else {
				want.Add(want, p)
			}
		}
		var div *Int
		inexact := false
		switch mode % 3 {
		case 1, 2:
			if d.IsZero() {
				return
			}
			div = d
			// Scale every X by d: the sum becomes d·want.
			for i := range terms {
				terms[i].X = new(Int).SetBig(new(big.Int).Mul(terms[i].X.ToBig(), d.ToBig()))
			}
			if mode%3 == 2 && d.CmpAbs(NewInt(1)) > 0 {
				terms = append(terms, Term{X: NewInt(1)})
				inexact = true
			}
		}
		var s Scratch
		for run := 0; run < 2; run++ {
			if inexact {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("inexact DotDiv (profile %v, %d terms) did not panic", pr, len(terms))
						}
					}()
					DotDiv(pr, nil, &s, div, terms...)
				}()
				continue
			}
			got, sumBits := DotDiv(pr, nil, &s, div, terms...)
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("DotDiv (profile %v, %d terms, run %d) = %s, want %s", pr, len(terms), run, got, want)
			}
			wantBits := want.BitLen()
			if div != nil {
				wantBits = new(big.Int).Mul(want, div.ToBig()).BitLen()
			}
			if sumBits != wantBits {
				t.Fatalf("DotDiv sum bits %d, want %d", sumBits, wantBits)
			}
		}
	})
}

// TestDotDivZeroAlloc checks that once a workspace has served operands
// as large, a fused call allocates only its result, the Int and its
// limbs, under both profiles: a remainder-sequence step (three products
// of 2000-by-1000-bit operands, then an exact division by a 1000-bit
// divisor) and a call whose products are Karatsuba-sized (at least
// kar64Threshold packed limbs).
func TestDotDivZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	rnd := func(bits int) *Int { return &Int{abs: randNatBits(r, bits)} }
	for _, tc := range []struct {
		name  string
		xbits int
	}{
		{"remseq", 1000},
		{"karatsuba", 3000},
	} {
		d := rnd(tc.xbits)
		// X = d·r, so the sum is a multiple of d.
		terms := []Term{
			{X: new(Int).Mul(d, rnd(tc.xbits)), Y: rnd(tc.xbits)},
			{X: new(Int).Mul(d, rnd(tc.xbits)), Y: rnd(tc.xbits)},
			{X: new(Int).Mul(d, rnd(tc.xbits)), Y: rnd(tc.xbits), Neg: true},
		}
		if tc.name == "karatsuba" && Fast.MulTier(terms[0].X.BitLen(), terms[0].Y.BitLen()) != TierKaratsuba {
			t.Fatalf("%s: products are not Karatsuba-sized", tc.name)
		}
		for _, pr := range []Profile{Schoolbook, Fast} {
			var s Scratch
			allocs := testing.AllocsPerRun(20, func() { DotDiv(pr, nil, &s, d, terms...) })
			if allocs != 2 {
				t.Errorf("%s/%v: %.1f allocations per call, want 2 (the Int and its limbs)", tc.name, pr, allocs)
			}
		}
	}
}

// TestScratchConcurrent runs DotDiv from several goroutines on one
// Scratch, as the workers of one solve do: each call must get a
// workspace of its own, so every result matches the serial one.
func TestScratchConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	type job struct {
		terms []Term
		d     *Int
		want  *Int
	}
	jobs := make([]job, 16)
	for i := range jobs {
		bits := 200 + 400*i
		d := &Int{abs: randNatBits(r, bits)}
		terms := []Term{
			{X: new(Int).Mul(d, &Int{abs: randNatBits(r, bits)}), Y: &Int{abs: randNatBits(r, bits)}},
			{X: new(Int).Mul(d, &Int{abs: randNatBits(r, bits)}), Y: &Int{abs: randNatBits(r, bits)}, Neg: true},
		}
		want, _ := DotDiv(Schoolbook, nil, nil, d, terms...)
		jobs[i] = job{terms, d, want}
	}
	var s Scratch
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for k := 0; k < 3*len(jobs); k++ {
				j := jobs[(k*(g+1))%len(jobs)]
				pr := Profile(k % 2)
				if got, _ := DotDiv(pr, nil, &s, j.d, j.terms...); got.Cmp(j.want) != 0 {
					t.Errorf("goroutine %d, %v: DotDiv differs from the serial result", g, pr)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
