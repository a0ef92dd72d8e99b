// Package metrics provides per-phase instrumentation of the big-integer
// arithmetic performed by the root-finding algorithm. The paper (§4, §5.1)
// validates its analysis by tracing the number of multiplications and
// their bit complexity in each phase; this package is the tracing
// machinery that regenerates Figures 2 through 7.
//
// Counters are updated atomically so that all scheduler workers can share
// one Counters value.
package metrics

import (
	"fmt"
	mathbits "math/bits"
	"sync/atomic"

	"realroots/internal/mp"
)

// Phase identifies one of the algorithm's sub-computations. The phases
// mirror the paper's decomposition: the remainder sequence (§3.1), the
// tree polynomial products (§3.2), sorting/merging of roots, the
// pre-interval polynomial evaluations, and the three sub-phases of the
// hybrid interval solver (double-exponential sieve, bisection, Newton;
// §2.2, Eq. 38).
type Phase int

const (
	PhaseRemainder Phase = iota
	PhaseTree
	PhaseSort
	PhasePreInterval
	PhaseSieve
	PhaseBisection
	PhaseNewton
	PhaseCharPoly
	PhaseOther
	NumPhases
)

var phaseNames = [NumPhases]string{
	"remainder", "tree", "sort", "preinterval", "sieve", "bisection", "newton", "charpoly", "other",
}

// String returns the phase name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// IntervalPhases lists the three sub-phases of the interval solver.
var IntervalPhases = []Phase{PhaseSieve, PhaseBisection, PhaseNewton}

// AllPhases lists every phase in order.
func AllPhases() []Phase {
	ps := make([]Phase, NumPhases)
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// BitLenBuckets is the number of log₂ bit-length histogram buckets.
// Bucket 0 counts zero-bit operands; bucket b ≥ 1 counts operations
// whose larger operand has a bit length in [2^(b-1), 2^b). The top
// bucket absorbs everything larger (≥ 2^(BitLenBuckets-2) bits — far
// beyond any operand this algorithm produces).
const BitLenBuckets = 20

// bitLenBucket maps an operand bit length to its histogram bucket.
func bitLenBucket(bits int) int {
	if bits <= 0 {
		return 0
	}
	b := mathbits.Len(uint(bits))
	if b >= BitLenBuckets {
		b = BitLenBuckets - 1
	}
	return b
}

// BucketRange describes histogram bucket b as the half-open bit-length
// interval [lo, hi) it counts (hi = 0 for the unbounded top bucket).
func BucketRange(b int) (lo, hi int) {
	switch {
	case b <= 0:
		return 0, 1
	case b >= BitLenBuckets-1:
		return 1 << (BitLenBuckets - 2), 0
	default:
		return 1 << (b - 1), 1 << b
	}
}

// A Kernel names what decided a sign evaluation: the certified float64
// screen, or the exact scaled Horner recurrence it falls back to
// (DESIGN.md §8). Both record the same operations, the ones the exact
// recurrence performs, so the kernel shows only in Report.Signs.
type Kernel int

const (
	KernelScreen Kernel = iota
	KernelExact
	NumKernels
)

// String returns the kernel name.
func (k Kernel) String() string {
	switch k {
	case KernelScreen:
		return "screen"
	case KernelExact:
		return "exact"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// Counters accumulates arithmetic operation counts per phase. The zero
// value is ready to use. A nil *Counters is valid everywhere and records
// nothing, so instrumentation can be disabled without branching at call
// sites.
type Counters struct {
	mul     [NumPhases]atomic.Int64 // number of multiplications
	mulBits [NumPhases]atomic.Int64 // Σ bitlen(x)·bitlen(y) over multiplications
	div     [NumPhases]atomic.Int64 // number of divisions
	divBits [NumPhases]atomic.Int64 // Σ bitlen(x)·bitlen(y) over divisions
	add     [NumPhases]atomic.Int64 // number of additions/subtractions
	evals   [NumPhases]atomic.Int64 // number of full polynomial evaluations

	// hist is the per-phase operand-size distribution: for every
	// multiplication and division, the log₂ bucket of the larger
	// operand's bit length (see BitLenBuckets).
	hist [NumPhases][BitLenBuckets]atomic.Int64

	// tiers counts multiplications by the kernel tier they dispatched
	// to (mp.Profile.MulTier). It is recorded only under the Fast
	// profile — schoolbook runs have a single implicit tier, and
	// leaving it untouched keeps paper-mode reports byte-identical to
	// pre-tier snapshots.
	tiers [NumPhases][mp.NumTiers]atomic.Int64

	// signs counts sign evaluations by the kernel that decided them
	// (see Kernel). They describe the implementation, not the
	// algorithm, so they stay out of PhaseReport and bitOps.
	signs [NumPhases][NumKernels]atomic.Int64

	// Budget enforcement (see SetBudget): bitOps aggregates
	// mulBits+divBits across all phases so the limit check is one
	// atomic load per operation.
	bitOps   atomic.Int64
	budget   atomic.Int64 // 0 = unlimited
	tripped  atomic.Bool
	onExceed atomic.Pointer[func()] // fired once, by the operation that crosses the limit
}

// SetBudget arms a bit-operation budget: once the cumulative
// Σ bitlen·bitlen over multiplications and divisions (BitOps) exceeds
// maxBits, onExceed (if non-nil) fires exactly once and BudgetExceeded
// reports true. maxBits ≤ 0 disarms the budget. SetBudget is safe to
// call concurrently with recording, though a budget re-armed mid-run
// applies only to operations that observe the new limit.
func (c *Counters) SetBudget(maxBits int64, onExceed func()) {
	if onExceed == nil {
		c.onExceed.Store(nil)
	} else {
		c.onExceed.Store(&onExceed)
	}
	c.budget.Store(maxBits)
}

// BitOps returns the cumulative Σ bitlen·bitlen over all
// multiplications and divisions in every phase — the paper's
// bit-complexity measure (§4), aggregated.
func (c *Counters) BitOps() int64 {
	if c == nil {
		return 0
	}
	return c.bitOps.Load()
}

// BudgetExceeded reports whether the budget armed by SetBudget has been
// exceeded. It is nil-safe and stays true until Reset.
func (c *Counters) BudgetExceeded() bool {
	return c != nil && c.tripped.Load()
}

// noteBits accumulates one operation's bit cost and trips the budget.
func (c *Counters) noteBits(bits int64) {
	total := c.bitOps.Add(bits)
	if lim := c.budget.Load(); lim > 0 && total > lim {
		if c.tripped.CompareAndSwap(false, true) {
			if f := c.onExceed.Load(); f != nil {
				(*f)()
			}
		}
	}
}

// noteHist records the operand-size histogram sample for one mul/div.
func (c *Counters) noteHist(p Phase, xbits, ybits int) {
	if ybits > xbits {
		xbits = ybits
	}
	c.hist[p][bitLenBucket(xbits)].Add(1)
}

// AddMul records one multiplication of xbits-by-ybits operands in phase
// p at its model cost, xbits·ybits — the paper's §4 bit-complexity
// measure, which assumes schoolbook arithmetic under every profile.
func (c *Counters) AddMul(p Phase, xbits, ybits int) {
	if c == nil {
		return
	}
	bits := int64(xbits) * int64(ybits)
	c.mul[p].Add(1)
	c.mulBits[p].Add(bits)
	c.noteHist(p, xbits, ybits)
	c.noteBits(bits)
}

// AddDiv records one division of an xbits dividend by a ybits divisor
// in phase p at its model cost, xbits·ybits.
func (c *Counters) AddDiv(p Phase, xbits, ybits int) {
	if c == nil {
		return
	}
	bits := int64(xbits) * int64(ybits)
	c.div[p].Add(1)
	c.divBits[p].Add(bits)
	c.noteHist(p, xbits, ybits)
	c.noteBits(bits)
}

// AddAdd records one addition or subtraction in phase p.
func (c *Counters) AddAdd(p Phase) {
	if c == nil {
		return
	}
	c.add[p].Add(1)
}

// AddEval records one complete polynomial evaluation in phase p.
func (c *Counters) AddEval(p Phase) {
	if c == nil {
		return
	}
	c.evals[p].Add(1)
}

// addEval records one evaluation in phase p with the operations
// tallied in t (see Ctx.FlushEval).
func (c *Counters) addEval(p Phase, t *Tally) {
	c.evals[p].Add(1)
	c.addTally(p, t)
}

// addTally records the operations tallied in t in phase p.
func (c *Counters) addTally(p Phase, t *Tally) {
	if t.adds != 0 {
		c.add[p].Add(t.adds)
	}
	if t.muls == 0 {
		return
	}
	c.mul[p].Add(t.muls)
	c.mulBits[p].Add(t.mulBits)
	for b, n := range t.hist {
		if n != 0 {
			c.hist[p][b].Add(n)
		}
	}
	for i, n := range t.tiers {
		if n != 0 {
			c.tiers[p][i].Add(n)
		}
	}
	c.noteBits(t.mulBits)
}

// Reset zeroes every counter and re-arms the budget (the limit set by
// SetBudget is kept; the exceeded state clears).
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		c.mul[p].Store(0)
		c.mulBits[p].Store(0)
		c.div[p].Store(0)
		c.divBits[p].Store(0)
		c.add[p].Store(0)
		c.evals[p].Store(0)
		for b := 0; b < BitLenBuckets; b++ {
			c.hist[p][b].Store(0)
		}
		for t := 0; t < mp.NumTiers; t++ {
			c.tiers[p][t].Store(0)
		}
		for k := range c.signs[p] {
			c.signs[p][k].Store(0)
		}
	}
	c.bitOps.Store(0)
	c.tripped.Store(false)
}

// PhaseReport is an immutable snapshot of one phase's counters.
type PhaseReport struct {
	Muls    int64 // multiplication count
	MulBits int64 // Σ bitlen·bitlen over multiplications ("bit complexity")
	Divs    int64
	DivBits int64
	Adds    int64
	Evals   int64
	// BitLen is the operand-size distribution of the phase's
	// multiplications and divisions in log₂ buckets: BitLen[b] counts
	// operations whose larger operand's bit length falls in
	// BucketRange(b).
	BitLen [BitLenBuckets]int64
	// Tiers counts the phase's multiplications by dispatch tier; it is
	// zero outside the Fast profile (see Counters.tiers).
	Tiers [mp.NumTiers]int64
}

// Ops returns the phase's combined multiplication + division count
// (the histogram's total mass).
func (p PhaseReport) Ops() int64 { return p.Muls + p.Divs }

// Report is a snapshot of all phases.
type Report struct {
	Phases [NumPhases]PhaseReport
	// Signs counts each phase's sign evaluations by the kernel that
	// decided them (Signs[p][k]). It is kept apart from Phases, and out
	// of the JSON form, because it describes the kernel that ran rather
	// than the algorithm's arithmetic.
	Signs [NumPhases][NumKernels]int64
}

// Snapshot captures the current counter values.
func (c *Counters) Snapshot() Report {
	var r Report
	if c == nil {
		return r
	}
	for p := Phase(0); p < NumPhases; p++ {
		pr := PhaseReport{
			Muls:    c.mul[p].Load(),
			MulBits: c.mulBits[p].Load(),
			Divs:    c.div[p].Load(),
			DivBits: c.divBits[p].Load(),
			Adds:    c.add[p].Load(),
			Evals:   c.evals[p].Load(),
		}
		for b := 0; b < BitLenBuckets; b++ {
			pr.BitLen[b] = c.hist[p][b].Load()
		}
		for t := 0; t < mp.NumTiers; t++ {
			pr.Tiers[t] = c.tiers[p][t].Load()
		}
		r.Phases[p] = pr
		for k := range r.Signs[p] {
			r.Signs[p][k] = c.signs[p][k].Load()
		}
	}
	return r
}

// accum adds p into t field-by-field (histogram included).
func (t *PhaseReport) accum(p PhaseReport) {
	t.Muls += p.Muls
	t.MulBits += p.MulBits
	t.Divs += p.Divs
	t.DivBits += p.DivBits
	t.Adds += p.Adds
	t.Evals += p.Evals
	for b := 0; b < BitLenBuckets; b++ {
		t.BitLen[b] += p.BitLen[b]
	}
	for i := 0; i < mp.NumTiers; i++ {
		t.Tiers[i] += p.Tiers[i]
	}
}

// Total returns the sum of all phases' counters.
func (r Report) Total() PhaseReport {
	var t PhaseReport
	for _, p := range r.Phases {
		t.accum(p)
	}
	return t
}

// PeakBits returns a lower bound on the largest operand bit-length the
// run touched: the lower edge of the highest occupied bit-length
// bucket, across all phases. Coefficient growth through the splitting
// tree is the algorithm's cost driver (§4), so this is the "how big did
// the numbers actually get" health number. Returns 0 when no
// multiplications or divisions were recorded.
func (r Report) PeakBits() int {
	for b := BitLenBuckets - 1; b >= 0; b-- {
		for p := Phase(0); p < NumPhases; p++ {
			if r.Phases[p].BitLen[b] != 0 {
				lo, _ := BucketRange(b)
				return lo
			}
		}
	}
	return 0
}

// Sum returns the combined counters of the given phases.
func (r Report) Sum(phases ...Phase) PhaseReport {
	var t PhaseReport
	for _, p := range phases {
		t.accum(r.Phases[p])
	}
	return t
}

// Add returns the per-phase sum r + o, histograms included. The
// telemetry registry uses it to accumulate per-run snapshots into the
// process-lifetime totals exposed on /metrics.
func (r Report) Add(o Report) Report {
	sum := r
	for p := Phase(0); p < NumPhases; p++ {
		sum.Phases[p].accum(o.Phases[p])
		for k := range sum.Signs[p] {
			sum.Signs[p][k] += o.Signs[p][k]
		}
	}
	return sum
}

// Sub returns the per-phase difference r - old (for interval snapshots).
func (r Report) Sub(old Report) Report {
	var d Report
	for p := Phase(0); p < NumPhases; p++ {
		a, b := r.Phases[p], old.Phases[p]
		pr := PhaseReport{
			Muls:    a.Muls - b.Muls,
			MulBits: a.MulBits - b.MulBits,
			Divs:    a.Divs - b.Divs,
			DivBits: a.DivBits - b.DivBits,
			Adds:    a.Adds - b.Adds,
			Evals:   a.Evals - b.Evals,
		}
		for bk := 0; bk < BitLenBuckets; bk++ {
			pr.BitLen[bk] = a.BitLen[bk] - b.BitLen[bk]
		}
		for t := 0; t < mp.NumTiers; t++ {
			pr.Tiers[t] = a.Tiers[t] - b.Tiers[t]
		}
		d.Phases[p] = pr
		for k := range d.Signs[p] {
			d.Signs[p][k] = r.Signs[p][k] - old.Signs[p][k]
		}
	}
	return d
}
