package mp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// refMul is the math/big reference product for packed operands.
func refMul(x, y []uint64) *big.Int {
	return new(big.Int).Mul(big64(x), big64(y))
}

func big64(x []uint64) *big.Int {
	var v Int
	v.abs = unpack(norm64(x))
	return v.ToBig()
}

func rand64(r *rand.Rand, limbs int) []uint64 {
	z := make([]uint64, limbs)
	for i := range z {
		z[i] = r.Uint64()
	}
	return norm64(z)
}

func checkMul64(t *testing.T, name string, got []uint64, x, y []uint64) {
	t.Helper()
	if want := refMul(x, y); big64(got).Cmp(want) != 0 {
		t.Fatalf("%s: %d×%d limbs: product mismatch vs math/big", name, len(x), len(y))
	}
}

// TestToom3VsBig exercises the Toom-3 kernel directly across balanced,
// lopsided (up to the 2× the dispatcher allows), and sparse shapes.
func TestToom3VsBig(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	shapes := [][2]int{
		{130, 130}, {131, 130}, {200, 101}, {255, 128}, {384, 384},
		{300, 160}, {129, 128}, {400, 201},
	}
	for _, s := range shapes {
		x, y := rand64(r, s[0]), rand64(r, s[1])
		checkMul64(t, "toom3", toom3Mul64(x, y, fastTiers), x, y)
	}
	// Sparse operands: zero middle or high parts of the split.
	x := rand64(r, 300)
	for i := 100; i < 200; i++ {
		x[i] = 0
	}
	y := append(rand64(r, 101), make([]uint64, 99)...) // y2 empty after norm
	y = norm64(y)
	checkMul64(t, "toom3/sparse", toom3Mul64(x, y, fastTiers), x, y)
}

// TestNTTVsBig exercises the NTT kernel directly, including the
// worst-case digit value (all-ones operands maximize the convolution
// coefficients the CRT must reconstruct exactly).
func TestNTTVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	shapes := [][2]int{{64, 64}, {100, 51}, {257, 130}, {512, 512}, {33, 17}}
	for _, s := range shapes {
		x, y := rand64(r, s[0]), rand64(r, s[1])
		checkMul64(t, "ntt", nttMul64(x, y, fastTiers), x, y)
	}
	ones := make([]uint64, 600)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	checkMul64(t, "ntt/all-ones", nttMul64(ones, ones, fastTiers), ones, ones)
}

// TestMulCrossoverBoundaries drives natMulFast through every tier
// transition: operand sizes straddling the Karatsuba, Toom-3 and NTT
// thresholds must all agree with math/big. The NTT sizes are real
// (≥ ntt64Threshold limbs), so this also proves the top tier engages.
func TestMulCrossoverBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("large operands")
	}
	r := rand.New(rand.NewSource(11))
	sizes := []int{
		kar64Threshold - 1, kar64Threshold, kar64Threshold + 1,
		toom64Threshold - 1, toom64Threshold, toom64Threshold + 1,
		ntt64Threshold - 1, ntt64Threshold, ntt64Threshold + 1,
	}
	for _, n := range sizes {
		x, y := rand64(r, n), rand64(r, n)
		checkMul64(t, fmt.Sprintf("mul64/%d", n), mul64t(x, y, fastTiers), x, y)
	}
}

// BenchmarkMulCrossover measures each kernel on balanced operands
// around the tier thresholds; the tier table's constants were chosen
// from this grid (go test ./internal/mp -bench Crossover).
func BenchmarkMulCrossover(b *testing.B) {
	r := rand.New(rand.NewSource(18))
	kernels := []struct {
		name string
		tab  tierTable
	}{
		{"karatsuba", tierTable{kar: kar64Threshold}},
		{"toom3", tierTable{kar: kar64Threshold, toom3: toom64Threshold}},
		{"ntt", tierTable{kar: kar64Threshold, toom3: toom64Threshold, ntt: 1 << 5}},
		{"tiered", fastTiers},
	}
	for _, n := range []int{64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144} {
		x, y := rand64(r, n), rand64(r, n)
		for _, k := range kernels {
			if k.name == "ntt" && n < 1<<5 {
				continue
			}
			b.Run(fmt.Sprintf("limbs=%d/%s", n, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					mul64t(x, y, k.tab)
				}
			})
		}
	}
}
