package mp

import (
	"fmt"
	"math/rand"
	"testing"
)

func randNatBits(r *rand.Rand, bits int) nat {
	n := (bits + 31) / 32
	x := make(nat, n)
	for i := range x {
		x[i] = r.Uint32()
	}
	x[n-1] |= 1 << 31
	return x.norm()
}

// BenchmarkDivShapes compares the dividers across the shapes the
// solver produces: exact divisions of a 2n-bit dividend by an n-bit
// divisor, n from 1k to 128k bits, then long-quotient and very
// unbalanced shapes. knuth is the paper profile's 32-bit Algorithm D,
// knuth64 the packed Algorithm D, bz the Burnikel–Ziegler recursion
// (its blocks bottom out in knuth64 below 2·fastDivThreshold limbs) and
// fast the Fast profile's dispatch between them. fastDivThreshold is
// where bz starts to beat knuth64 on the 2:1 shapes.
func BenchmarkDivShapes(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var shapes [][2]int
	for v := 1000; v <= 128000; v *= 2 {
		shapes = append(shapes, [2]int{2 * v, v})
	}
	shapes = append(shapes, [2]int{30000, 7000}, [2]int{20000, 2000}, [2]int{40000, 20000}, [2]int{10000, 5000})
	for _, sh := range shapes {
		u := randNatBits(r, sh[0])
		v := randNatBits(r, sh[1])
		name := fmt.Sprintf("%dby%d", sh[0], sh[1])
		var w workspace
		kernels := []struct {
			name string
			div  func()
		}{
			{"knuth", func() { w.quoRem32(u, v) }},
			{"knuth64", func() { w.knuth64(u, v) }},
			{"bz", func() { w.burnikelZiegler(u, v) }},
			{"fast", func() { QuoRem(Fast, nil, new(Int), &Int{abs: u}, &Int{abs: v}, new(Int)) }},
		}
		for _, k := range kernels {
			if k.name == "knuth" && sh[1] > 16000 {
				continue // quadratic on 32-bit limbs: minutes at the top of the grid
			}
			b.Run(name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.div()
				}
			})
		}
	}
}

// BenchmarkGCDProfiles compares the Euclidean remainder loop against
// the packed binary GCD on PRS-sized coefficients.
func BenchmarkGCDProfiles(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	for _, bitsz := range []int{2000, 10000, 30000} {
		x := &Int{abs: randNatBits(r, bitsz)}
		y := &Int{abs: randNatBits(r, bitsz)}
		name := fmt.Sprintf("%dbits", bitsz)
		b.Run(name+"/euclid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				new(Int).GCD(x, y)
			}
		})
		b.Run(name+"/binary", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				new(Int).GCDProfile(Fast, x, y)
			}
		})
	}
}
