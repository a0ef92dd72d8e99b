package mp

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
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
		checkMul64(t, fmt.Sprintf("mul64/%d", n), mul64(x, y), x, y)
	}
}

// chanPool is a minimal Parallel implementation: n goroutines draining
// a queue. Tests use it so the claim-loop logic is exercised without
// depending on the sched package.
type chanPool struct {
	ch chan func()
	wg sync.WaitGroup
}

func newChanPool(workers int) *chanPool {
	p := &chanPool{ch: make(chan func(), 64)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.ch {
				f()
			}
		}()
	}
	return p
}

func (p *chanPool) Submit(f func()) { p.ch <- f }
func (p *chanPool) Close()          { close(p.ch); p.wg.Wait() }

// dropPool discards every submitted task: the degenerate scheduler a
// canceled pool presents. The caller's claim loop must still complete
// the product alone.
type dropPool struct{}

func (dropPool) Submit(func()) {}

// TestMulParallelVsSerial pins the parallel path to the serial product
// bit for bit, under worker counts 1 and 4 and under a scheduler that
// drops every task.
func TestMulParallelVsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("large operands")
	}
	r := rand.New(rand.NewSource(12))
	shapes := [][2]int{
		{parMul64Threshold, parMul64Threshold},
		{parMul64Threshold + 37, parMul64Threshold + 1},
		{2 * parMul64Threshold, parMul64Threshold + 3},
	}
	pools := map[string]Parallel{
		"P=1":  newChanPool(1),
		"P=4":  newChanPool(4),
		"drop": dropPool{},
	}
	for _, s := range shapes {
		x, y := rand64(r, s[0]), rand64(r, s[1])
		want := mul64(x, y)
		for name, pool := range pools {
			got := parMul64(x, y, pool, fastTiers)
			if cmp64(got, want) != 0 {
				t.Fatalf("parMul64(%v) %dx%d: differs from serial mul64", name, s[0], s[1])
			}
		}
	}
	for _, p := range pools {
		if cp, ok := p.(*chanPool); ok {
			cp.Close()
		}
	}
}

// TestDotDivParallel checks the parallel path through DotDiv, the
// entry point the solver's products take: sign handling, the serial
// fallback below the threshold and for lopsided shapes, and agreement
// with MulProfile.
func TestDotDivParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("large operands")
	}
	pool := newChanPool(4)
	defer pool.Close()
	r := rand.New(rand.NewSource(13))
	bits := parMul64Threshold * 2 * limbBits // comfortably above threshold
	var s Scratch
	for i, tc := range []struct {
		xb, yb int
		neg    bool
	}{
		{bits, bits, false}, {bits, bits / 2, false}, {200, 300, false}, {bits, 64, false}, {bits, bits, true},
	} {
		x, y := RandInt(r, tc.xb), RandInt(r, tc.yb)
		if tc.neg {
			x.Neg(x)
		}
		var want Int
		want.MulProfile(Fast, x, y)
		if got, _ := DotDiv(Fast, pool, &s, nil, Term{X: x, Y: y}); got.Cmp(&want) != 0 {
			t.Fatalf("case %d: DotDiv with a parallel hook differs from MulProfile", i)
		}
	}
}

// TestMulParallelSpeedup is the acceptance check for the parallel
// path: on a ≥100k-bit balanced product, four helpers must beat the
// serial kernel. Timing-based, so it takes the best of several rounds
// and only warns under extreme scheduling noise unless the parallel
// path is consistently slower.
func TestMulParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs 4 CPUs")
	}
	r := rand.New(rand.NewSource(14))
	n := 4 * parMul64Threshold // ≈ 393k bits: panels land well above toom3 tier
	x, y := rand64(r, n), rand64(r, n)
	pool := newChanPool(4)
	defer pool.Close()

	best := func(f func()) (d float64) {
		d = 1e18
		for i := 0; i < 5; i++ {
			start := time.Now()
			f()
			if e := float64(time.Since(start)); e < d {
				d = e
			}
		}
		return d
	}
	serial := best(func() { mul64(x, y) })
	par := best(func() { parMul64(x, y, pool, fastTiers) })
	t.Logf("serial %.2fms parallel %.2fms speedup %.2fx", serial/1e6, par/1e6, serial/par)
	if par >= serial {
		t.Errorf("parallel mul (%.2fms) not faster than serial (%.2fms) at %d bits, P=4",
			par/1e6, serial/1e6, n*64)
	}
}

// TestMulCostPinnedToKernel pins Profile.MulCost against the kernels'
// instrumented limb-product count across shapes covering every tier.
// The old closed form drifted from the kernel on two counts (truncating
// halving, full-width partial blocks); the rewrite must stay within a
// modeling tolerance of the real work.
func TestMulCostPinnedToKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("large operands")
	}
	r := rand.New(rand.NewSource(15))
	shapes := [][2]int{
		{60, 60},      // packed karatsuba, just above 32-limb threshold
		{101, 67},     // odd, unbalanced karatsuba
		{130, 130},    // toom3
		{385, 193},    // toom3, lopsided
		{700, 90},     // block decomposition with partial tail block
		{2048, 2048},  // deep toom3 recursion
		{2100, 2049},  // toom3, odd
		{8192, 8192},  // ntt at exact transform fill
		{16384, 8192}, // ntt, 2:1 shape at the ¾-fill edge
	}
	for _, s := range shapes {
		lx, ly := s[0], s[1]
		x, y := rand64(r, lx), rand64(r, ly)
		var count int64
		tab := fastTiers
		tab.count = &count
		got := mul64t(x, y, tab)
		checkMul64(t, "mul64t/counted", got, x, y) // counting table must not change results
		counted := float64(count) * 4 * limbBits * limbBits
		cost := float64(Fast.MulCost(lx*2*limbBits, ly*2*limbBits))
		if ratio := cost / counted; ratio < 0.6 || ratio > 1.6 {
			t.Errorf("MulCost(%d,%d limbs) = %.3g, instrumented count %.3g (ratio %.2f)",
				lx, ly, cost, counted, ratio)
		}
	}
}

// TestMulCostPartialBlockRegression is the regression pin for the
// block-decomposition bug: an (lb+1)-limb × lb-limb product was charged
// ceil(la/lb) = 2 full blocks — nearly double the instrumented work.
func TestMulCostPartialBlockRegression(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	lb := 3 * kar64Threshold // 60 packed limbs, karatsuba range
	la := 2*lb + 1           // one full pair of blocks plus a 1-limb tail
	x, y := rand64(r, la), rand64(r, lb)
	var count int64
	tab := fastTiers
	tab.count = &count
	checkMul64(t, "partial-block", mul64t(x, y, tab), x, y)
	counted := float64(count) * 4 * limbBits * limbBits
	cost := float64(Fast.MulCost(la*2*limbBits, lb*2*limbBits))
	// The old formula returned blocks=ceil(la/lb)=3 full blocks here,
	// ~1.5× the real work; the fix charges the tail at its true size.
	if ratio := cost / counted; ratio > 1.35 {
		t.Errorf("MulCost still overcharges partial blocks: cost %.3g vs counted %.3g (ratio %.2f)",
			cost, counted, ratio)
	}
}

// TestMulCostTruncationRegression pins the halving-loop bug: on
// odd-sized balanced operands the old t /= 2 walk lost the ceil(n/2)
// split sizes and drifted below the instrumented work level by level.
func TestMulCostTruncationRegression(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	// 81 packed limbs: four ceil-halvings 81→41→21→11 hit the base case
	// at 11; the truncating walk modeled 81→40→20→10 instead.
	lx := 81
	x, y := rand64(r, lx), rand64(r, lx)
	var count int64
	tab := fastTiers
	tab.ntt, tab.toom3 = 0, 0 // isolate the karatsuba walk
	tab.count = &count
	checkMul64(t, "truncation", mul64t(x, y, tab), x, y)
	counted := float64(count) * 4 * limbBits * limbBits
	cost := float64(Fast.MulCost(lx*2*limbBits, lx*2*limbBits))
	if ratio := cost / counted; ratio < 0.75 || ratio > 1.35 {
		t.Errorf("MulCost drifts from instrumented count on odd sizes: cost %.3g vs counted %.3g (ratio %.2f)",
			cost, counted, ratio)
	}
}

// TestDivCostEqualLength is the regression pin for the DivCost bug:
// under Fast, equal-length divisions (every remainder-sequence
// normalization step) must be charged like the compare-and-single-step
// division they are, not the full quadratic schoolbook model.
func TestDivCostEqualLength(t *testing.T) {
	const bits = 4096
	model := int64(bits) * int64(bits)
	if got := Schoolbook.DivCost(bits, bits); got != model {
		t.Fatalf("Schoolbook.DivCost(%d,%d) = %d, want model %d", bits, bits, got, model)
	}
	got := Fast.DivCost(bits, bits)
	if got >= model/10 {
		t.Errorf("Fast.DivCost(%d,%d) = %d: still ~quadratic (model %d); an equal-length division is one compare and at most one subtraction", bits, bits, got, model)
	}
	if short := Fast.DivCost(bits-1, bits); short >= model/10 {
		t.Errorf("Fast.DivCost(%d,%d) = %d: shorter-dividend division must be linear", bits-1, bits, short)
	}
	// Monotonicity across the xbits = ybits boundary: a slightly longer
	// dividend may not be cheaper than a slightly shorter one.
	if a, b := Fast.DivCost(bits+64, bits), Fast.DivCost(bits-64, bits); a < b {
		t.Errorf("DivCost not monotonic across equal length: DivCost(%d)=%d < DivCost(%d)=%d",
			bits+64, a, bits-64, b)
	}
}

// TestDivCostBoundary walks DivCost across the fastDivThreshold
// boundary: the estimate must stay positive, bounded by the model, and
// free of cliffs bigger than the regime change itself.
func TestDivCostBoundary(t *testing.T) {
	thr := fastDivThreshold * limbBits // threshold in bits
	for _, ybits := range []int{thr - limbBits, thr, thr + limbBits, 4 * thr} {
		prev := int64(0)
		for _, qbits := range []int{1, thr - limbBits, thr, thr + limbBits, 3 * thr} {
			xbits := ybits + qbits
			got := Fast.DivCost(xbits, ybits)
			model := int64(xbits) * int64(ybits)
			if got <= 0 || got > model {
				t.Fatalf("Fast.DivCost(%d,%d) = %d out of range (0, model=%d]", xbits, ybits, got, model)
			}
			if got < prev/4 {
				t.Errorf("Fast.DivCost(%d,%d) = %d: collapsed vs smaller quotient cost %d", xbits, ybits, got, prev)
			}
			prev = got
		}
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

// BenchmarkMulParallel measures the parallel path against the serial
// tiered kernel at P∈{1,4} (the DESIGN.md §12 numbers).
func BenchmarkMulParallel(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{parMul64Threshold, 2 * parMul64Threshold, 4 * parMul64Threshold} {
		x, y := rand64(r, n), rand64(r, n)
		b.Run(fmt.Sprintf("limbs=%d/serial", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mul64(x, y)
			}
		})
		for _, p := range []int{1, 4} {
			pool := newChanPool(p)
			b.Run(fmt.Sprintf("limbs=%d/P=%d", n, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parMul64(x, y, pool, fastTiers)
				}
			})
			pool.Close()
		}
	}
}

// TestRowLoopMatchesDispatch pins RowLoop to the dispatch it summarizes:
// wherever it reports the row loop for a ybits-bit operand, every
// product with it, whatever the other operand's width, is in
// TierSchoolbook at its model cost and serial; and the first width past
// it is not, under Fast.
func TestRowLoopMatchesDispatch(t *testing.T) {
	xs := []int{0, 1, 31, 32, 33, 224, 225, 1280, 4096, 200000, 10000000}
	for _, pr := range []Profile{Schoolbook, Fast} {
		last := 0
		for y := 0; y <= 2000; y++ {
			if !pr.RowLoop(y) {
				continue
			}
			last = y
			for _, x := range xs {
				if pr.MulTier(x, y) != TierSchoolbook || pr.MulCost(x, y) != int64(x)*int64(y) || pr.MulParallelEngages(x, y) {
					t.Fatalf("%v: RowLoop(%d) but a %d-bit product is %v at cost %d", pr, y, x, pr.MulTier(x, y), pr.MulCost(x, y))
				}
			}
		}
		if pr == Fast && (last != 224 || Fast.MulTier(225, 225) == TierSchoolbook) {
			t.Errorf("fast: row loop up to %d bits; the packed tier starts at 225", last)
		}
	}
}
