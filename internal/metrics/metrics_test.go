package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"realroots/internal/mp"
)

func TestCountersBasic(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 10, 20)
	c.AddMul(PhaseTree, 5, 5)
	c.AddDiv(PhaseRemainder, 8, 4)
	c.AddAdd(PhaseSort)
	c.AddEval(PhaseNewton)
	rep := c.Snapshot()
	if rep.Phases[PhaseTree].Muls != 2 || rep.Phases[PhaseTree].MulBits != 225 {
		t.Errorf("tree: %+v", rep.Phases[PhaseTree])
	}
	if rep.Phases[PhaseRemainder].Divs != 1 || rep.Phases[PhaseRemainder].DivBits != 32 {
		t.Errorf("remainder: %+v", rep.Phases[PhaseRemainder])
	}
	if rep.Phases[PhaseSort].Adds != 1 || rep.Phases[PhaseNewton].Evals != 1 {
		t.Error("adds/evals not recorded")
	}
}

func TestNilCountersSafe(t *testing.T) {
	var c *Counters
	c.AddMul(PhaseTree, 1, 1)
	c.AddDiv(PhaseTree, 1, 1)
	c.AddAdd(PhaseTree)
	c.AddEval(PhaseTree)
	c.Reset()
	rep := c.Snapshot()
	if rep.Total().Muls != 0 {
		t.Error("nil counters recorded something")
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.AddMul(PhaseSieve, 3, 3)
	c.Reset()
	if c.Snapshot().Total().Muls != 0 {
		t.Error("Reset did not clear")
	}
}

func TestTotalAndSum(t *testing.T) {
	var c Counters
	c.AddMul(PhaseSieve, 2, 2)
	c.AddMul(PhaseBisection, 3, 3)
	c.AddMul(PhaseNewton, 4, 4)
	rep := c.Snapshot()
	if rep.Total().Muls != 3 {
		t.Errorf("total = %d", rep.Total().Muls)
	}
	s := rep.Sum(IntervalPhases...)
	if s.Muls != 3 || s.MulBits != 4+9+16 {
		t.Errorf("sum = %+v", s)
	}
	if rep.Sum(PhaseTree).Muls != 0 {
		t.Error("empty phase non-zero")
	}
}

func TestSub(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 2, 2)
	before := c.Snapshot()
	c.AddMul(PhaseTree, 5, 5)
	diff := c.Snapshot().Sub(before)
	if diff.Phases[PhaseTree].Muls != 1 || diff.Phases[PhaseTree].MulBits != 25 {
		t.Errorf("diff = %+v", diff.Phases[PhaseTree])
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseRemainder.String() != "remainder" || PhaseNewton.String() != "newton" {
		t.Error("phase names")
	}
	if Phase(99).String() == "" {
		t.Error("out-of-range phase name empty")
	}
	if len(AllPhases()) != int(NumPhases) {
		t.Error("AllPhases length")
	}
}

func TestConcurrentCounting(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddMul(PhaseTree, 1, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().Phases[PhaseTree].Muls; got != 8000 {
		t.Errorf("concurrent count = %d", got)
	}
}

func TestCtxArithmetic(t *testing.T) {
	var c Counters
	ctx := Ctx{C: &c, Phase: PhaseRemainder}
	z := ctx.Mul(mp.NewInt(6), mp.NewInt(7))
	if z.Int64() != 42 {
		t.Errorf("Mul = %s", z)
	}
	if ctx.Sqr(mp.NewInt(-5)).Int64() != 25 {
		t.Error("Sqr")
	}
	if ctx.Add(mp.NewInt(1), mp.NewInt(2)).Int64() != 3 {
		t.Error("Add")
	}
	if ctx.Sub(mp.NewInt(1), mp.NewInt(2)).Int64() != -1 {
		t.Error("Sub")
	}
	if ctx.DivExact(mp.NewInt(42), mp.NewInt(6)).Int64() != 7 {
		t.Error("DivExact")
	}
	if ctx.Mul(mp.NewInt(3), mp.NewInt(3)).Int64() != 9 {
		t.Error("Mul")
	}
	if ctx.DivExact(mp.NewInt(9), mp.NewInt(3)).Int64() != 3 {
		t.Error("DivExact")
	}
	rep := c.Snapshot()
	if rep.Phases[PhaseRemainder].Muls != 3 || rep.Phases[PhaseRemainder].Divs != 2 || rep.Phases[PhaseRemainder].Adds != 2 {
		t.Errorf("ctx counts: %+v", rep.Phases[PhaseRemainder])
	}
	// In is a phase-switched copy.
	ctx2 := ctx.In(PhaseTree)
	ctx2.Mul(mp.NewInt(2), mp.NewInt(2))
	if c.Snapshot().Phases[PhaseTree].Muls != 1 {
		t.Error("In did not switch phase")
	}
}

// TestInKeepsEveryField pins that a phase switch copies the whole
// context: every field is set, so a field In dropped would show.
func TestInKeepsEveryField(t *testing.T) {
	c := Ctx{C: &Counters{}, Phase: PhaseSort, Profile: mp.Fast, Scratch: new(mp.Scratch)}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s is unset; set it so In is checked for it", v.Type().Field(i).Name)
		}
	}
	want := c
	want.Phase = PhaseTree
	if got := c.In(PhaseTree); got != want {
		t.Errorf("In(PhaseTree) = %+v, want %+v", got, want)
	}
}

func TestZeroCtxWorks(t *testing.T) {
	var ctx Ctx
	if ctx.Mul(mp.NewInt(2), mp.NewInt(3)).Int64() != 6 {
		t.Error("zero ctx Mul")
	}
}

func TestBitOpsAggregate(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 10, 20)    // 200 bits
	c.AddDiv(PhaseRemainder, 8, 4) // 32 bits
	c.AddAdd(PhaseSort)            // adds do not count
	if got := c.BitOps(); got != 232 {
		t.Errorf("BitOps = %d, want 232", got)
	}
	var nilC *Counters
	if nilC.BitOps() != 0 || nilC.BudgetExceeded() {
		t.Error("nil counters budget state not zero")
	}
}

func TestBudgetTripsOnceAtLimit(t *testing.T) {
	var c Counters
	fired := 0
	c.SetBudget(100, func() { fired++ })
	c.AddMul(PhaseTree, 10, 10) // total 100: not exceeded (limit is inclusive)
	if c.BudgetExceeded() {
		t.Fatal("tripped at exactly the limit")
	}
	c.AddMul(PhaseTree, 1, 1) // total 101: exceeded
	if !c.BudgetExceeded() {
		t.Fatal("did not trip past the limit")
	}
	c.AddDiv(PhaseTree, 50, 50)
	if fired != 1 {
		t.Fatalf("onExceed fired %d times, want 1", fired)
	}
}

func TestBudgetUnlimitedByDefault(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 1<<15, 1<<15)
	if c.BudgetExceeded() {
		t.Fatal("tripped without a budget")
	}
}

func TestResetRearmsBudget(t *testing.T) {
	var c Counters
	c.SetBudget(10, nil)
	c.AddMul(PhaseTree, 100, 100)
	if !c.BudgetExceeded() {
		t.Fatal("did not trip")
	}
	c.Reset()
	if c.BudgetExceeded() || c.BitOps() != 0 {
		t.Fatal("Reset did not clear budget state")
	}
	c.AddMul(PhaseTree, 100, 100)
	if !c.BudgetExceeded() {
		t.Fatal("budget not re-armed after Reset")
	}
}

// TestCtxProfileDispatch checks that a Ctx carrying the Fast profile
// computes the same values and records the same operation counts and
// model cost as a schoolbook Ctx (paper-mode traces are
// profile-independent) on operands past the Karatsuba threshold.
func TestCtxProfileDispatch(t *testing.T) {
	mk := func(pr mp.Profile) (Report, *mp.Int) {
		var c Counters
		ctx := Ctx{C: &c, Phase: PhaseTree, Profile: pr}
		x := new(mp.Int).Lsh(mp.NewInt(1), 20000)
		x.Sub(x, mp.NewInt(12345))
		z := ctx.Mul(x, x)
		ctx.DivExact(z, x)
		return c.Snapshot(), z
	}
	rs, zs := mk(mp.Schoolbook)
	rf, zf := mk(mp.Fast)
	if zs.Cmp(zf) != 0 {
		t.Fatal("profiles disagree on the product")
	}
	ps, pf := rs.Phases[PhaseTree], rf.Phases[PhaseTree]
	if ps.Muls != pf.Muls || ps.MulBits != pf.MulBits || ps.Divs != pf.Divs || ps.DivBits != pf.DivBits {
		t.Errorf("model-side recording differs across profiles:\n schoolbook %+v\n fast %+v", ps, pf)
	}
	// In(p) must preserve the profile.
	if got := (Ctx{Profile: mp.Fast}).In(PhaseSort).Profile; got != mp.Fast {
		t.Errorf("In dropped the profile: %v", got)
	}
}

// TestTierRecording checks that Fast-profile multiplications are
// attributed to their dispatch tier, that schoolbook runs record no
// tiers (keeping paper-mode reports identical to pre-tier snapshots),
// and that the counters survive Add/Sub and the JSON round trip.
func TestTierRecording(t *testing.T) {
	var c Counters
	fast := Ctx{C: &c, Phase: PhaseTree, Profile: mp.Fast}
	a, b := new(mp.Int).SetInt64(1), new(mp.Int).SetInt64(1)
	a.Lsh(a, 5000) // ~5000 bits: packed-karatsuba territory
	b.Lsh(b, 4999)
	fast.Mul(a, b)
	fast.Mul(new(mp.Int).SetInt64(3), new(mp.Int).SetInt64(5)) // tiny: schoolbook tier

	rep := c.Snapshot()
	tr := rep.Phases[PhaseTree]
	if got := tr.Tiers[mp.TierKaratsuba]; got != 1 {
		t.Errorf("karatsuba tier count = %d, want 1 (tiers %v)", got, tr.Tiers)
	}
	if got := tr.Tiers[mp.TierSchoolbook]; got != 1 {
		t.Errorf("schoolbook tier count = %d, want 1 (tiers %v)", got, tr.Tiers)
	}

	// Schoolbook profile records no tiers at all.
	var s Counters
	paper := Ctx{C: &s, Phase: PhaseTree, Profile: mp.Schoolbook}
	paper.Mul(a, b)
	if tiers := s.Snapshot().Phases[PhaseTree].Tiers; tiers != ([mp.NumTiers]int64{}) {
		t.Errorf("schoolbook profile recorded tiers %v", tiers)
	}

	// Add folds tiers; Sub inverts it.
	sum := rep.Add(rep)
	if got := sum.Phases[PhaseTree].Tiers[mp.TierKaratsuba]; got != 2 {
		t.Errorf("Add tier count = %d, want 2", got)
	}
	if diff := sum.Sub(rep); diff.Phases[PhaseTree].Tiers != tr.Tiers {
		t.Errorf("Sub tiers = %v, want %v", diff.Phases[PhaseTree].Tiers, tr.Tiers)
	}
}

// TestTierJSONRoundTrip pins the wire form: tier counts appear keyed by
// name under Fast, are absent from schoolbook reports, and round-trip.
func TestTierJSONRoundTrip(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 8, 8)
	rep := c.Snapshot()
	rep.Phases[PhaseTree].Tiers[mp.TierToom3] = 2
	rep.Phases[PhaseTree].Tiers[mp.TierNTT] = 1

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"tiers":{`) || !strings.Contains(string(data), `"toom3":2`) {
		t.Errorf("tier counts missing from JSON: %s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Phases[PhaseTree].Tiers != rep.Phases[PhaseTree].Tiers {
		t.Errorf("round trip tiers = %v, want %v", back.Phases[PhaseTree].Tiers, rep.Phases[PhaseTree].Tiers)
	}

	// A tier-free report must not mention tiers at all (old readers and
	// old snapshots stay compatible both ways).
	var s Counters
	s.AddMul(PhaseTree, 8, 8)
	plain, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "tiers") {
		t.Errorf("tier-free report leaks tier fields: %s", plain)
	}
	if err := json.Unmarshal(plain, &back); err != nil {
		t.Fatal(err)
	}

	// Unknown tier names are schema drift, not silence.
	bad := []byte(`{"phases":{"tree":{"muls":1,"tiers":{"quantum":1}}}}`)
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Error("unknown tier name accepted")
	}
}

// TestFlushEvalMatchesPerOpRecording pins that one evaluation's tally,
// built by Tally.Horner a block of step lengths at a time and flushed
// once, records exactly what recording each multiplication and addition
// through the Counters does: counts, model bits, histogram buckets and,
// under Fast, every product in TierSchoolbook, the 32-bit row loop that
// mp.Horner runs at any width — at points on both sides of the packed
// tier's 225 bits and of Karatsuba's, and lengths on both sides of the
// point's width. The budget trips at the flush that crosses it, once.
func TestFlushEvalMatchesPerOpRecording(t *testing.T) {
	lens := []int{0, 1, 17, 30, 31, 250, 3000, 40000, 120000}
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		for _, abits := range []int{0, 24, 70, 224, 225, 5000, 110000} {
			var perOp, tallied Counters
			ctxT := Ctx{C: &tallied, Phase: PhaseNewton, Profile: pr}
			var fired int
			tallied.SetBudget(1, func() { fired++ })
			perOp.AddEval(PhaseNewton)
			for _, n := range lens {
				perOp.AddMul(PhaseNewton, n, abits)
				perOp.AddAdd(PhaseNewton)
				if pr == mp.Fast {
					perOp.tiers[PhaseNewton][mp.TierSchoolbook].Add(1)
				}
			}
			var tl Tally
			tl.Horner(ctxT, lens[:4], abits)
			tl.Horner(ctxT, lens[4:], abits)
			if tallied.BudgetExceeded() {
				t.Fatalf("%v: budget tripped before the flush", pr)
			}
			ctxT.FlushEval(&tl)
			if got, want := tallied.Snapshot(), perOp.Snapshot(); got != want {
				t.Errorf("%v abits=%d: flushed tally %+v, per-operation recording %+v", pr, abits, got.Phases[PhaseNewton], want.Phases[PhaseNewton])
			}
			if abits > 0 && (!tallied.BudgetExceeded() || fired != 1) {
				t.Errorf("%v: budget exceeded %v, fired %d times; want true, once", pr, tallied.BudgetExceeded(), fired)
			}
		}
	}
	// A nil sink records nothing and does not panic.
	var tl Tally
	tl.Horner(Ctx{}, []int{10}, 10)
	Ctx{}.FlushEval(&tl)
}

// TestSignKernelCounts pins the sign evaluations' kernel split: FlushSign
// records the evaluation as FlushEval does and counts it under its
// kernel, apart from the phase reports, the bit operations and the JSON
// form; snapshots add, subtract and reset it.
func TestSignKernelCounts(t *testing.T) {
	var c, plain Counters
	var tl Tally
	tl.Horner(Ctx{}, []int{40, 60}, 20)
	ctx := Ctx{C: &c, Phase: PhaseBisection}
	ctx.FlushSign(&tl, KernelScreen)
	ctx.FlushSign(&tl, KernelScreen)
	ctx.In(PhaseNewton).FlushSign(&tl, KernelExact)
	pctx := Ctx{C: &plain, Phase: PhaseBisection}
	pctx.FlushEval(&tl)
	pctx.FlushEval(&tl)
	pctx.In(PhaseNewton).FlushEval(&tl)

	r := c.Snapshot()
	if r.Signs[PhaseBisection] != [NumKernels]int64{2, 0} || r.Signs[PhaseNewton] != [NumKernels]int64{0, 1} {
		t.Fatalf("signs %v", r.Signs)
	}
	if p := plain.Snapshot(); r.Phases != p.Phases || c.BitOps() != plain.BitOps() {
		t.Errorf("FlushSign recorded %+v, FlushEval %+v", r.Phases[PhaseBisection], p.Phases[PhaseBisection])
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if pj, _ := json.Marshal(plain.Snapshot()); string(data) != string(pj) {
		t.Errorf("JSON carries the kernel split:\n%s\n%s", data, pj)
	}
	if sum := r.Add(r); sum.Signs[PhaseBisection][KernelScreen] != 4 || sum.Sub(r).Signs != r.Signs {
		t.Errorf("Add/Sub: %v", sum.Signs)
	}
	if KernelScreen.String() != "screen" || KernelExact.String() != "exact" {
		t.Errorf("kernel names %s, %s", KernelScreen, KernelExact)
	}
	c.Reset()
	if c.Snapshot().Signs != ([NumPhases][NumKernels]int64{}) {
		t.Errorf("Reset kept %v", c.Snapshot().Signs)
	}
}
