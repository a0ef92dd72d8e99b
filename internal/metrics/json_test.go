package metrics

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"realroots/internal/mp"
)

func TestBitLenBucket(t *testing.T) {
	cases := []struct{ bits, want int }{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 18, 19}, {1 << 25, BitLenBuckets - 1},
	}
	for _, c := range cases {
		if got := bitLenBucket(c.bits); got != c.want {
			t.Errorf("bitLenBucket(%d) = %d, want %d", c.bits, got, c.want)
		}
	}
}

func TestBucketRange(t *testing.T) {
	// Every representable bit length must fall inside its bucket's range.
	for _, bits := range []int{0, 1, 2, 3, 4, 100, 1 << 10, 1 << 19} {
		b := bitLenBucket(bits)
		lo, hi := BucketRange(b)
		if bits < lo || (hi != 0 && bits >= hi) {
			t.Errorf("bits %d in bucket %d with range [%d,%d)", bits, b, lo, hi)
		}
	}
}

func TestHistogramRecording(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 5, 9) // max 9 → bucket 4
	c.AddMul(PhaseTree, 9, 5) // symmetric
	c.AddDiv(PhaseTree, 3, 1) // max 3 → bucket 2
	c.AddMul(PhaseSort, 0, 0) // bucket 0
	rep := c.Snapshot()
	tr := rep.Phases[PhaseTree]
	if tr.BitLen[4] != 2 || tr.BitLen[2] != 1 {
		t.Errorf("tree histogram = %v", tr.BitLen)
	}
	if got := rep.Phases[PhaseSort].BitLen[0]; got != 1 {
		t.Errorf("sort bucket 0 = %d, want 1", got)
	}
	// Histogram mass equals mul+div count.
	var mass int64
	for _, v := range tr.BitLen {
		mass += v
	}
	if mass != tr.Ops() {
		t.Errorf("histogram mass %d != ops %d", mass, tr.Ops())
	}
}

func TestSumSubHistogram(t *testing.T) {
	var c Counters
	c.AddMul(PhaseTree, 8, 8)
	c.AddMul(PhaseSieve, 8, 8)
	before := c.Snapshot()
	c.AddMul(PhaseTree, 8, 8)
	diff := c.Snapshot().Sub(before)
	if got := diff.Phases[PhaseTree].BitLen[4]; got != 1 {
		t.Errorf("Sub histogram tree bucket 4 = %d, want 1", got)
	}
	if got := diff.Phases[PhaseSieve].BitLen[4]; got != 0 {
		t.Errorf("Sub histogram sieve bucket 4 = %d, want 0", got)
	}
	sum := c.Snapshot().Sum(PhaseTree, PhaseSieve)
	if sum.BitLen[4] != 3 {
		t.Errorf("Sum histogram bucket 4 = %d, want 3", sum.BitLen[4])
	}
	if tot := c.Snapshot().Total(); tot.BitLen[4] != 3 {
		t.Errorf("Total histogram bucket 4 = %d, want 3", tot.BitLen[4])
	}
}

func TestSubSumEdgeCases(t *testing.T) {
	var empty Report
	if got := empty.Sub(empty); got != empty {
		t.Error("empty.Sub(empty) != empty")
	}
	if got := empty.Sum(); got != (PhaseReport{}) {
		t.Error("Sum() of no phases != zero")
	}
	if got := empty.Total(); got != (PhaseReport{}) {
		t.Error("Total of empty != zero")
	}
	// Sub is its own inverse: r.Sub(zero) == r, r.Sub(r) == zero.
	var c Counters
	c.AddMul(PhaseNewton, 12, 7)
	c.AddEval(PhaseNewton)
	r := c.Snapshot()
	if r.Sub(empty) != r {
		t.Error("r.Sub(zero) != r")
	}
	if r.Sub(r) != empty {
		t.Error("r.Sub(r) != zero")
	}
	// Negative deltas survive (interval snapshots taken out of order).
	neg := empty.Sub(r)
	if neg.Phases[PhaseNewton].Muls != -1 || neg.Phases[PhaseNewton].BitLen[4] != -1 {
		t.Errorf("negative Sub = %+v", neg.Phases[PhaseNewton])
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	var c Counters
	c.AddMul(PhaseRemainder, 100, 90)
	c.AddDiv(PhaseRemainder, 50, 10)
	c.AddAdd(PhaseTree)
	c.AddEval(PhaseNewton)
	r := c.Snapshot()

	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"remainder"`, `"tree"`, `"newton"`, `"total"`, `"bitlenHist"`, `"muls":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s: %s", want, s)
		}
	}
	if strings.Contains(s, `"sort"`) {
		t.Errorf("JSON contains empty phase: %s", s)
	}

	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, r)
	}
}

func TestReportJSONUnknownPhase(t *testing.T) {
	var r Report
	if err := json.Unmarshal([]byte(`{"phases":{"quantum":{"muls":1}}}`), &r); err == nil {
		t.Error("unknown phase accepted")
	}
	if err := json.Unmarshal([]byte(`{"phases":{"tree":{"bitlenHist":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]}}}`), &r); err == nil {
		t.Error("oversized histogram accepted")
	}
}

// TestConcurrentAddMulSetBudget exercises the documented safety of
// re-arming the budget while recordings are in flight (run under -race).
func TestConcurrentAddMulSetBudget(t *testing.T) {
	var c Counters
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.AddMul(PhaseTree, 64, 64)
				c.AddDiv(PhaseBisection, 32, 32)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.SetBudget(int64(i+1)*10, func() { fired.Add(1) })
		}
	}()
	wg.Wait()
	// Arm a budget already far below the recorded work and record once
	// more: the trip is now deterministic regardless of how the
	// concurrent phase interleaved.
	c.SetBudget(1, func() { fired.Add(1) })
	c.AddMul(PhaseTree, 64, 64)
	if !c.BudgetExceeded() {
		t.Error("budget not tripped")
	}
	if n := fired.Load(); n > 1 {
		t.Errorf("onExceed fired %d times, want at most 1", n)
	}
	rep := c.Snapshot()
	if rep.Phases[PhaseTree].Muls != 2001 {
		t.Errorf("muls = %d, want 2001", rep.Phases[PhaseTree].Muls)
	}
}

// TestAddMulNoAllocs guards the hot path: recording (histogram
// included) must stay allocation-free.
func TestAddMulNoAllocs(t *testing.T) {
	var c Counters
	if n := testing.AllocsPerRun(1000, func() {
		c.AddMul(PhaseTree, 64, 128)
		c.AddDiv(PhaseTree, 64, 128)
	}); n != 0 {
		t.Errorf("AddMul/AddDiv allocate %.1f objects/op, want 0", n)
	}
}

// TestDecodeIgnoresRemovedFields pins that snapshots written while the
// counters also carried an estimated cost per phase and a count of
// parallel products, as results/BENCH_pr4.json and BENCH_pr9.json do,
// still decode, with every remaining field intact.
func TestDecodeIgnoresRemovedFields(t *testing.T) {
	old, err := os.ReadFile("testdata/removed_fields.json")
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(old, &r); err != nil {
		t.Fatal(err)
	}
	want := PhaseReport{Muls: 2, MulBits: 64, Divs: 1, DivBits: 8, Adds: 3, Evals: 4}
	want.BitLen[1], want.BitLen[2] = 1, 2
	want.Tiers[mp.TierSchoolbook], want.Tiers[mp.TierKaratsuba] = 1, 1
	var wantReport Report
	wantReport.Phases[PhaseTree] = want
	if r != wantReport {
		t.Errorf("decoded %+v, want %+v", r.Phases[PhaseTree], want)
	}
}
