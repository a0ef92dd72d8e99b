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

type nopPar struct{}

func (nopPar) Submit(func()) {}

// TestInKeepsEveryField pins that a phase switch copies the whole
// context: every field is set, so a field In dropped would show.
func TestInKeepsEveryField(t *testing.T) {
	c := Ctx{C: &Counters{}, Phase: PhaseSort, Profile: mp.Fast, Par: nopPar{}, Scratch: new(mp.Scratch)}
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
// records the same operation counts and model cost as a schoolbook Ctx
// (paper-mode traces are profile-independent) while reporting a smaller
// actual cost on operands past the Karatsuba threshold.
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
	if ps.MulBitsActual != ps.MulBits {
		t.Errorf("schoolbook actual %d != model %d", ps.MulBitsActual, ps.MulBits)
	}
	if pf.MulBitsActual >= pf.MulBits {
		t.Errorf("fast actual mul cost %d not below model %d at 20000 bits", pf.MulBitsActual, pf.MulBits)
	}
	if pf.DivBitsActual >= pf.DivBits {
		t.Errorf("fast actual div cost %d not below model %d at 20000 bits", pf.DivBitsActual, pf.DivBits)
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
	if tr.ParMuls != 0 {
		t.Errorf("ParMuls = %d without a Par hook", tr.ParMuls)
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
	c.AddMulTier(PhaseTree, mp.TierToom3)
	c.AddMulTier(PhaseTree, mp.TierToom3)
	c.AddMulTier(PhaseTree, mp.TierNTT)
	c.AddParMul(PhaseTree)
	c.AddMul(PhaseTree, 8, 8)
	rep := c.Snapshot()

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
	if back.Phases[PhaseTree].ParMuls != 1 {
		t.Errorf("round trip parMuls = %d, want 1", back.Phases[PhaseTree].ParMuls)
	}

	// A tier-free report must not mention tiers at all (old readers and
	// old snapshots stay compatible both ways).
	var s Counters
	s.AddMul(PhaseTree, 8, 8)
	plain, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "tiers") || strings.Contains(string(plain), "parMuls") {
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

// inlinePar is a parallel hook that runs panels on the caller.
type inlinePar struct{}

func (inlinePar) Submit(task func()) { task() }

// TestFlushEvalMatchesPerOpRecording pins that one evaluation's tally,
// flushed once, records exactly what recording each multiplication and
// addition through the Ctx does: counts, model and actual bits,
// histogram buckets, tiers and parallel products. The budget trips at
// the flush that crosses it, once.
func TestFlushEvalMatchesPerOpRecording(t *testing.T) {
	shapes := [][2]int{{0, 30}, {17, 30}, {300, 70}, {3000, 200}, {40000, 90}, {120000, 110000}}
	for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		var perOp, tallied Counters
		ctxOp := Ctx{C: &perOp, Phase: PhaseNewton, Profile: pr, Par: inlinePar{}}
		ctxT := Ctx{C: &tallied, Phase: PhaseNewton, Profile: pr, Par: inlinePar{}}
		var fired int
		tallied.SetBudget(1, func() { fired++ })
		ctxOp.C.AddEval(ctxOp.Phase)
		var tl Tally
		for _, sh := range shapes {
			ctxOp.C.addMul(ctxOp.Phase, ctxOp.attributeMul(sh[0], sh[1]))
			ctxOp.C.AddAdd(ctxOp.Phase)
			tl.Mul(ctxT, sh[0], sh[1])
			tl.Add()
		}
		if tallied.BudgetExceeded() {
			t.Fatalf("%v: budget tripped before the flush", pr)
		}
		ctxT.FlushEval(&tl)
		if got, want := tallied.Snapshot(), perOp.Snapshot(); got != want {
			t.Errorf("%v: flushed tally %+v, per-operation recording %+v", pr, got.Phases[PhaseNewton], want.Phases[PhaseNewton])
		}
		if !tallied.BudgetExceeded() || fired != 1 {
			t.Errorf("%v: budget exceeded %v, fired %d times; want true, once", pr, tallied.BudgetExceeded(), fired)
		}
		if pr == mp.Fast && tallied.Snapshot().Phases[PhaseNewton].ParMuls == 0 {
			t.Errorf("fast: the largest shape should take the parallel path")
		}
	}
	// A nil sink records nothing and does not panic.
	var tl Tally
	tl.Mul(Ctx{}, 10, 10)
	Ctx{}.FlushEval(&tl)
}
