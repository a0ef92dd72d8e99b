package charpoly

import (
	"math/rand"
	"testing"

	"realroots/internal/poly"
)

var benchSink *poly.Poly

// randomSymmetricWide returns a random symmetric n×n matrix with
// entries drawn from the whole int64 range.
func randomSymmetricWide(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := int64(r.Uint64())
			m.SetInt64(i, j, v)
			m.SetInt64(j, i, v)
		}
	}
	return m
}

// BenchmarkCharPoly times one characteristic polynomial: the paper's
// 0-1 matrices at the sizes rootd and the library workloads use, and
// the largest matrices rootd admits (n = 64) with 41-bit and full-width
// entries. Run the n=64 rows of a slow implementation with -benchtime 1x.
func BenchmarkCharPoly(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		m    *Matrix
	}{
		{"01/n=8", RandomSymmetric01(r, 8)},
		{"01/n=16", RandomSymmetric01(r, 16)},
		{"01/n=24", RandomSymmetric01(r, 24)},
		{"01/n=44", RandomSymmetric01(r, 44)},
		{"41bit/n=64", RandomSymmetric(r, 64, 1<<40)},
		{"int64/n=64", randomSymmetricWide(r, 64)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = CharPoly(c.m)
			}
		})
	}
}
