package poly

import (
	"fmt"
	"math/rand"
	"testing"

	"realroots/internal/mp"
)

func benchPoly(deg, coeffBits int, seed int64) *Poly {
	r := rand.New(rand.NewSource(seed))
	c := make([]*mp.Int, deg+1)
	for i := range c {
		c[i] = mp.RandInt(r, coeffBits)
		if i == deg && c[i].IsZero() {
			c[i] = mp.NewInt(1)
		}
	}
	return New(c...)
}

func BenchmarkMul(b *testing.B) {
	for _, deg := range []int{8, 32, 64} {
		p := benchPoly(deg, 256, 1)
		q := benchPoly(deg, 256, 2)
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Mul(q)
			}
		})
	}
}

func BenchmarkGCD(b *testing.B) {
	g := FromRoots(mp.NewInt(3), mp.NewInt(-7), mp.NewInt(11))
	p := g.Mul(FromRoots(mp.NewInt(1), mp.NewInt(2)))
	q := g.Mul(FromRoots(mp.NewInt(-4), mp.NewInt(9)))
	for i := 0; i < b.N; i++ {
		GCD(p, q)
	}
}

func BenchmarkYun(b *testing.B) {
	p := FromRoots(mp.NewInt(1), mp.NewInt(1), mp.NewInt(2), mp.NewInt(2), mp.NewInt(2), mp.NewInt(-3))
	for i := 0; i < b.N; i++ {
		Yun(p)
	}
}
