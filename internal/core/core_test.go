package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/trace"
	"realroots/internal/tree"
	"realroots/internal/workload"
)

func dy(num int64, scale uint) dyadic.Dyadic { return dyadic.New(mp.NewInt(num), scale) }

func distinctRoots(r *rand.Rand, k, span int) []*mp.Int {
	seen := map[int64]bool{}
	var roots []*mp.Int
	for len(roots) < k {
		v := int64(r.Intn(2*span+1) - span)
		if !seen[v] {
			seen[v] = true
			roots = append(roots, mp.NewInt(v))
		}
	}
	return roots
}

func sortedInt64(roots []*mp.Int) []int64 {
	vs := make([]int64, len(roots))
	for i, r := range roots {
		vs[i] = r.Int64()
	}
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
	return vs
}

func checkIntegerRoots(t *testing.T, res *Result, want []int64) {
	t.Helper()
	if len(res.Roots) != len(want) {
		t.Fatalf("got %d roots, want %d", len(res.Roots), len(want))
	}
	for i, r := range res.Roots {
		// Integer roots are exactly representable at any µ.
		if !r.IsInt() || r.Num().Int64() != want[i] {
			t.Fatalf("root %d = %v, want %d", i, r, want[i])
		}
	}
}

func TestSequentialIntegerRoots(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		n := 1 + r.Intn(12)
		roots := distinctRoots(r, n, 40)
		p := poly.FromRoots(roots...)
		res, err := FindRoots(p, Options{Mu: 8})
		if err != nil {
			t.Fatalf("FindRoots: %v", err)
		}
		checkIntegerRoots(t, res, sortedInt64(roots))
		if res.Degree != n || res.NStar != n || !res.Squarefree {
			t.Fatalf("metadata: %+v", res)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(14)
		roots := distinctRoots(r, n, 60)
		p := poly.FromRoots(roots...)
		seqRes, err := FindRoots(p, Options{Mu: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			parRes, err := FindRoots(p, Options{Mu: 16, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(parRes.Roots) != len(seqRes.Roots) {
				t.Fatalf("workers=%d: %d roots vs %d", workers, len(parRes.Roots), len(seqRes.Roots))
			}
			for i := range parRes.Roots {
				if !parRes.Roots[i].Equal(seqRes.Roots[i]) {
					t.Fatalf("workers=%d root %d: %v vs %v", workers, i, parRes.Roots[i], seqRes.Roots[i])
				}
			}
			if parRes.Stats.Tasks == 0 {
				t.Fatalf("workers=%d executed no scheduler tasks", workers)
			}
		}
	}
}

func TestSequentialPrecomputeOption(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	p := poly.FromRoots(distinctRoots(r, 9, 30)...)
	a, err := FindRoots(p, Options{Mu: 12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindRoots(p, Options{Mu: 12, Workers: 4, SequentialPrecompute: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Roots {
		if !a.Roots[i].Equal(b.Roots[i]) {
			t.Fatalf("root %d differs with sequential precompute", i)
		}
	}
}

func TestDyadicRootsHighPrecision(t *testing.T) {
	// p with roots -11/8, 3/16, 9/2 — exact at µ ≥ 4.
	roots := []dyadic.Dyadic{dy(-11, 3), dy(3, 4), dy(9, 1)}
	p := poly.FromInt64s(1)
	for _, rt := range roots {
		p = p.Mul(poly.New(new(mp.Int).Neg(rt.Num()), new(mp.Int).Lsh(mp.NewInt(1), rt.Scale())))
	}
	for _, workers := range []int{1, 4} {
		res, err := FindRoots(p, Options{Mu: 24, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range roots {
			if !res.Roots[i].Equal(want) {
				t.Fatalf("root %d = %v, want %v", i, res.Roots[i], want)
			}
		}
	}
}

func TestCeilingConvention(t *testing.T) {
	// Root at 1/4 with µ=1 must report ⌈2·(1/4)⌉/2 = 1/2.
	p := poly.FromInt64s(-1, 4) // 4x - 1
	res, err := FindRoots(p, Options{Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Roots[0].Equal(dy(1, 1)) {
		t.Fatalf("root = %v, want 1/2", res.Roots[0])
	}
}

func TestRepeatedRootsReduceToDistinct(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(1), mp.NewInt(1), mp.NewInt(-4), mp.NewInt(-4), mp.NewInt(9))
	res, err := FindRoots(p, Options{Mu: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Squarefree {
		t.Error("input reported squarefree")
	}
	if res.NStar != 3 || res.Degree != 6 {
		t.Fatalf("NStar=%d Degree=%d", res.NStar, res.Degree)
	}
	checkIntegerRoots(t, res, []int64{-4, 1, 9})
}

func TestMultiplicities(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(1), mp.NewInt(1), mp.NewInt(-4), mp.NewInt(-4), mp.NewInt(9))
	rm, err := FindRootsWithMultiplicity(p, Options{Mu: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		v int64
		m int
	}{{-4, 2}, {1, 3}, {9, 1}}
	if len(rm) != len(want) {
		t.Fatalf("got %d roots", len(rm))
	}
	for i, w := range want {
		if rm[i].Root.Num().Int64() != w.v || !rm[i].Root.IsInt() || rm[i].Mult != w.m {
			t.Fatalf("entry %d = {%v, %d}, want {%d, %d}", i, rm[i].Root, rm[i].Mult, w.v, w.m)
		}
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := FindRoots(poly.Zero(), Options{Mu: 4}); err == nil {
		t.Error("zero polynomial accepted")
	}
	if _, err := FindRoots(poly.FromInt64s(3), Options{Mu: 4}); err == nil {
		t.Error("constant accepted")
	}
	if _, err := FindRoots(poly.FromInt64s(1, 0, 1), Options{Mu: 4}); !errors.Is(err, remseq.ErrNotAllReal) {
		t.Errorf("x²+1: err = %v", err)
	}
	// Mixed real/complex roots.
	p := poly.FromInt64s(1, 0, 1).Mul(poly.FromRoots(mp.NewInt(2), mp.NewInt(-3)))
	if _, err := FindRoots(p, Options{Mu: 4}); !errors.Is(err, remseq.ErrNotAllReal) {
		t.Errorf("mixed: err = %v", err)
	}
	// Repeated complex roots: the sequence stops on the gcd x²+1, and
	// the multiplicity-2 factor x²+1 then fails Sturm validation.
	p = poly.FromInt64s(1, 0, 1).Mul(poly.FromInt64s(1, 0, 1)).Mul(poly.FromRoots(mp.NewInt(2)))
	if _, err := FindRoots(p, Options{Mu: 4, Workers: 2}); !errors.Is(err, remseq.ErrNotAllReal) {
		t.Errorf("repeated complex: err = %v", err)
	}
}

func TestLinearAndQuadratic(t *testing.T) {
	res, err := FindRoots(poly.FromInt64s(-14, 2), Options{Mu: 4}) // 2x-14
	if err != nil {
		t.Fatal(err)
	}
	checkIntegerRoots(t, res, []int64{7})

	res, err = FindRoots(poly.FromRoots(mp.NewInt(-1), mp.NewInt(1)), Options{Mu: 4, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkIntegerRoots(t, res, []int64{-1, 1})
}

func TestCharPolyEigenvalues(t *testing.T) {
	// End-to-end on the paper's workload: eigenvalues of a symmetric
	// matrix, validated against the matrix's trace (sum of eigenvalues).
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 5; trial++ {
		n := 6 + r.Intn(6)
		m := charpoly.RandomSymmetric01(r, n)
		const mu = 24
		res, err := FindRootsOfMatrix(m, Options{Mu: mu, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		sum := 0.0
		for i, root := range res.Roots {
			total += res.Mults[i]
			sum += float64(res.Mults[i]) * root.Float64()
		}
		if total != n {
			t.Fatalf("multiplicities sum to %d for n=%d", total, n)
		}
		// Σ λ_i = tr(M); each approximation is within 2^-µ above its root.
		tr := 0.0
		for i := 0; i < n; i++ {
			tr += float64(m.At(i, i))
		}
		if diff := sum - tr; diff < 0 || diff > float64(n)/float64(int64(1)<<mu)+1e-9 {
			t.Fatalf("eigenvalue sum %v vs trace %v (diff %v)", sum, tr, diff)
		}
	}
}

func TestMethodsAgreeEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	p := poly.FromRoots(distinctRoots(r, 10, 50)...)
	var base []dyadic.Dyadic
	for _, m := range []interval.Method{interval.MethodHybrid, interval.MethodBisection, interval.MethodNewton} {
		res, err := FindRoots(p, Options{Mu: 20, Method: m, Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if base == nil {
			base = res.Roots
			continue
		}
		for i := range base {
			if !base[i].Equal(res.Roots[i]) {
				t.Fatalf("%v: root %d differs", m, i)
			}
		}
	}
}

func TestCheckTreeOption(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	p := poly.FromRoots(distinctRoots(r, 8, 30)...)
	if _, err := FindRoots(p, Options{Mu: 8, CheckTree: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := FindRoots(p, Options{Mu: 8, Workers: 4, CheckTree: true}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	p := poly.FromRoots(distinctRoots(r, 9, 30)...)
	var c metrics.Counters
	if _, err := FindRoots(p, Options{Mu: 16, Counters: &c}); err != nil {
		t.Fatal(err)
	}
	rep := c.Snapshot()
	for _, ph := range []metrics.Phase{metrics.PhaseRemainder, metrics.PhaseTree, metrics.PhasePreInterval} {
		if rep.Phases[ph].Muls == 0 {
			t.Errorf("phase %v recorded no multiplications", ph)
		}
	}
	if rep.Total().Muls < 100 {
		t.Errorf("implausibly few multiplications: %d", rep.Total().Muls)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	p := poly.FromRoots(distinctRoots(r, 11, 100)...)
	var prev []dyadic.Dyadic
	for run := 0; run < 4; run++ {
		res, err := FindRoots(p, Options{Mu: 16, Workers: 6})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for i := range prev {
				if !prev[i].Equal(res.Roots[i]) {
					t.Fatalf("run %d root %d differs", run, i)
				}
			}
		}
		prev = res.Roots
	}
}

func TestNegativeLeadingCoefficient(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(-2), mp.NewInt(5), mp.NewInt(7)).ScaleInt(mp.NewInt(-3))
	res, err := FindRoots(p, Options{Mu: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkIntegerRoots(t, res, []int64{-2, 5, 7})
}

func TestLargeDegreeSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("large degree in -short mode")
	}
	r := rand.New(rand.NewSource(69))
	roots := distinctRoots(r, 25, 500)
	p := poly.FromRoots(roots...)
	res, err := FindRoots(p, Options{Mu: 32, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkIntegerRoots(t, res, sortedInt64(roots))
}

func TestSimulatedWorkersMatchResults(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	p := poly.FromRoots(distinctRoots(r, 12, 60)...)
	seqRes, err := FindRoots(p, Options{Mu: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, vw := range []int{1, 4, 16} {
		simRes, err := FindRoots(p, Options{Mu: 16, SimulateWorkers: vw})
		if err != nil {
			t.Fatalf("sim P=%d: %v", vw, err)
		}
		for i := range seqRes.Roots {
			if !seqRes.Roots[i].Equal(simRes.Roots[i]) {
				t.Fatalf("sim P=%d root %d differs", vw, i)
			}
		}
		if simRes.Stats.SimMakespan <= 0 || simRes.Stats.SimWork <= 0 {
			t.Fatalf("sim P=%d stats empty: %+v", vw, simRes.Stats)
		}
		if simRes.Stats.SimMakespan > simRes.Stats.SimWork {
			t.Fatalf("sim P=%d makespan > work", vw)
		}
	}
}

func TestSimulatedSpeedupIncreasesWithP(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	p := poly.FromRoots(distinctRoots(r, 30, 300)...)
	// The speedup is one run's simulated work (its one-processor
	// makespan) over its makespan on 8 processors, so the timing noise
	// between two separate runs cannot enter it.
	res, err := FindRoots(p, Options{Mu: 32, SimulateWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	speedup := res.Stats.SimWork.Seconds() / res.Stats.SimMakespan.Seconds()
	if speedup < 2 {
		t.Fatalf("simulated speedup at P=8 is only %.2f", speedup)
	}
}

func TestSimulateAndWorkersMutuallyExclusive(t *testing.T) {
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(2), mp.NewInt(3))
	if _, err := FindRoots(p, Options{Mu: 8, Workers: 2, SimulateWorkers: 2}); err == nil {
		t.Fatal("Workers+SimulateWorkers accepted")
	}
}

// TestTaskKindCounts counts a parallel run's tasks by kind from the
// pool's task tags, as a tracer records them: the task taxonomy of the
// paper's Fig. 3.2 plus the precomputation stage's coefficient tasks.
func TestTaskKindCounts(t *testing.T) {
	kinds := func(p *poly.Poly) map[string]int64 {
		t.Helper()
		tr := trace.New()
		res, err := FindRoots(p, Options{Mu: 16, Workers: 4, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		byTag, total := map[string]int64{}, int64(0)
		for _, k := range tr.Summarize().Tasks {
			byTag[k.Name] += int64(k.Count)
			total += int64(k.Count)
		}
		if total != res.Stats.Tasks {
			t.Fatalf("task tags sum to %d, executed %d: %v", total, res.Stats.Tasks, byTag)
		}
		return byTag
	}

	r := rand.New(rand.NewSource(72))
	n := 15
	tk := kinds(poly.FromRoots(distinctRoots(r, n, 80)...))
	// Structural counts: one SORT per node; one INTERVAL per root per
	// node (Σ node sizes); one PREINTERVAL per interleaving point per
	// node (Σ sizes + node count), plus each node's PREINTERVAL gate
	// task, which carries the same tag.
	nodes, sizes := 0, 0
	tree.Build(n).Walk(func(nd *tree.Node) { nodes++; sizes += nd.Size() })
	if tk["sort"] != int64(nodes) {
		t.Errorf("sort tasks %d, want %d", tk["sort"], nodes)
	}
	if tk["interval"] != int64(sizes) {
		t.Errorf("interval tasks %d, want %d", tk["interval"], sizes)
	}
	if tk["preinterval"] != int64(sizes+2*nodes) {
		t.Errorf("preinterval tasks %d, want %d", tk["preinterval"], sizes+2*nodes)
	}
	if tk["precompute"] == 0 || tk["computepoly"] == 0 {
		t.Errorf("missing precompute/computepoly tasks: %v", tk)
	}

	// Repeated roots: the remainder sequence stops on the gcd, and the
	// two degree-3 Yun factors are then solved on the same pool, so the
	// counts sum over both factors' trees.
	rtk := kinds(poly.FromRoots(mp.NewInt(1), mp.NewInt(2), mp.NewInt(4),
		mp.NewInt(-3), mp.NewInt(-3), mp.NewInt(5), mp.NewInt(5), mp.NewInt(9), mp.NewInt(9)))
	nodes = 0
	tree.Build(3).Walk(func(*tree.Node) { nodes++ })
	if rtk["sort"] != int64(2*nodes) || rtk["precompute"] == 0 {
		t.Errorf("repeated roots: task kinds %v; want %d sorts and precompute tasks", rtk, 2*nodes)
	}
}

func TestQuickEndToEndDyadicRoots(t *testing.T) {
	// Property: for random dyadic-rooted polynomials, FindRoots returns
	// exactly the ceiling approximations of the known roots, at random
	// µ and worker counts.
	f := func(seed int64, muRaw, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mu := uint(muRaw%20) + 1
		workers := int(wRaw%4) + 1
		k := 2 + r.Intn(6)
		seen := map[string]bool{}
		var roots []dyadic.Dyadic
		for len(roots) < k {
			d := dyadic.New(mp.NewInt(int64(r.Intn(513)-256)), uint(r.Intn(4)))
			if !seen[d.String()] {
				seen[d.String()] = true
				roots = append(roots, d)
			}
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i].Cmp(roots[j]) < 0 })
		p := poly.FromInt64s(1)
		for _, rt := range roots {
			p = p.Mul(poly.New(new(mp.Int).Neg(rt.Num()), new(mp.Int).Lsh(mp.NewInt(1), rt.Scale())))
		}
		res, err := FindRoots(p, Options{Mu: mu, Workers: workers})
		if err != nil || len(res.Roots) != k {
			return false
		}
		for i, rt := range roots {
			if !res.Roots[i].Equal(rt.CeilGrid(mu)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProfilesAndWorkersAgree checks that the Fast profile on four
// workers, the schoolbook profile on four workers and a four-worker
// simulation under Fast all return the roots of a one-worker Fast run,
// bit for bit.
func TestProfilesAndWorkersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	roots := distinctRoots(r, 12, 80)
	p := poly.FromRoots(roots...)
	base, err := FindRoots(p, Options{Mu: 24, Profile: mp.Fast})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Mu: 24, Profile: mp.Fast, Workers: 4},
		{Mu: 24, Profile: mp.Schoolbook, Workers: 4},
		{Mu: 24, Profile: mp.Fast, SimulateWorkers: 4},
	} {
		res, err := FindRoots(p, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if len(res.Roots) != len(base.Roots) {
			t.Fatalf("%+v: %d roots vs %d", opts, len(res.Roots), len(base.Roots))
		}
		for i := range res.Roots {
			if !res.Roots[i].Equal(base.Roots[i]) {
				t.Fatalf("%+v root %d: %v vs %v", opts, i, res.Roots[i], base.Roots[i])
			}
		}
	}
}

// TestFindRootsOfMatrix checks that a matrix solve answers as the
// polynomial solve of its characteristic polynomial does, with the same
// counted arithmetic, and that the charpoly is the run's first phase.
// OnPhase reports the phases by the names of their control-lane spans,
// in the same order; "interval" alone has no span.
func TestFindRootsOfMatrix(t *testing.T) {
	m := charpoly.RandomSymmetric01(rand.New(rand.NewSource(66)), 12)
	for _, workers := range []int{0, 2} {
		var cp, cm metrics.Counters
		want, err := FindRoots(charpoly.CharPoly(m), Options{Mu: 16, Workers: workers, Counters: &cp})
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		var mu sync.Mutex
		var phases []string
		got, err := FindRootsOfMatrix(m, Options{Mu: 16, Workers: workers, Counters: &cm, Tracer: tr,
			OnPhase: func(ph string) {
				mu.Lock()
				phases = append(phases, ph)
				mu.Unlock()
			}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Degree != 12 || !slices.EqualFunc(got.Roots, want.Roots, dyadic.Dyadic.Equal) || !slices.Equal(got.Mults, want.Mults) {
			t.Fatalf("workers=%d: matrix solve differs from the polynomial solve", workers)
		}
		if cm.BitOps() != cp.BitOps() || !reflect.DeepEqual(cm.Snapshot(), cp.Snapshot()) {
			t.Errorf("workers=%d: counters differ: %d bit ops for the matrix, %d for its polynomial", workers, cm.BitOps(), cp.BitOps())
		}
		if !slices.Contains(phases, "interval") {
			t.Errorf("workers=%d: phases %v, want interval reported", workers, phases)
		}
		spans := phaseSpans(tr)
		if named := slices.DeleteFunc(slices.Clone(phases), func(ph string) bool { return ph == "interval" }); !slices.Equal(named, spans) {
			t.Errorf("workers=%d: OnPhase reported %v, phase spans are %v", workers, phases, spans)
		}
		if want := []string{"charpoly", "remainder", "solve"}; !slices.Equal(spans, want) {
			t.Errorf("workers=%d: phase spans %v, want %v", workers, spans, want)
		}
	}
}

// TestMatrixDeadlineBoundsCharPoly: the charpoly of a 64×64 matrix of
// full-width entries needs 135 primes; a 20 ms deadline stops it
// between two of them.
func TestMatrixDeadlineBoundsCharPoly(t *testing.T) {
	m, err := charpoly.FromRows(workload.SymmetricRowsWide(67, 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		res, err := FindRootsOfMatrix(m, Options{Mu: 16, Workers: workers, Ctx: ctx})
		elapsed := time.Since(start)
		cancel()
		checkPartial(t, res, err, ErrDeadline)
		if elapsed > time.Second {
			t.Errorf("workers=%d: ErrDeadline after %v, want within 1s of a 20ms deadline", workers, elapsed)
		}
	}
}
