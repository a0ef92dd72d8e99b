package metrics

import "realroots/internal/mp"

// Ctx bundles a counter sink with the phase it attributes work to and
// the arithmetic profile the run executes under. The arithmetic helpers
// below are the instrumented entry points used in the algorithm's hot
// paths; they record the operation before performing it with
// internal/mp, dispatching to the profile's algorithms. Carrying the
// profile here — as a per-operation value rather than package state —
// is what lets concurrent solves run under different profiles without
// any synchronization. A zero Ctx (nil Counters) performs schoolbook
// arithmetic without recording.
//
// Recording is profile-independent: both profiles log the same
// operation counts and the same model cost (the paper's §4 schoolbook
// measure), so paper-mode traces are unchanged by this machinery; only
// the actual-cost fields and the wall time differ between profiles.
type Ctx struct {
	C       *Counters
	Phase   Phase
	Profile mp.Profile
	// Par, when non-nil, is the scheduler hook offered huge balanced
	// products (the mp parallel multiplication path). Like Profile it is
	// per-operation state, never a package global; a nil Par keeps every
	// product serial. Results are bit-identical either way.
	Par mp.Parallel
	// Scratch is the free list of arithmetic workspaces that DotDiv and
	// the helpers built on it draw from; one solve owns one list and
	// drops it when it returns. A nil Scratch gives each operation a
	// transient workspace.
	Scratch *mp.Scratch
}

// In returns a copy of the context attributed to phase p.
func (c Ctx) In(p Phase) Ctx {
	c.Phase = p
	return c
}

// A mulRecord is what one multiplication records: its model cost (the
// paper's §4 schoolbook measure, xbits·ybits) and actual cost, its
// operand-size histogram bucket and, under Fast, the tier it dispatches
// to and whether the parallel path engages.
type mulRecord struct {
	bits, actual int64
	bucket       int
	tiered       bool // Fast, the only profile with more than one kernel
	tier         mp.Tier
	par          bool
}

// attributeMul attributes one xbits-by-ybits multiplication under c's
// profile and parallel hook. It is the one place that decides what a
// multiplication records; Tally.Mul collects it with the rest of an
// evaluation or a DotDiv.
func (c Ctx) attributeMul(xbits, ybits int) mulRecord {
	r := mulRecord{
		bits:   int64(xbits) * int64(ybits),
		actual: c.Profile.MulCost(xbits, ybits),
		bucket: bitLenBucket(max(xbits, ybits)),
	}
	if c.Profile == mp.Fast {
		r.tiered, r.tier = true, c.Profile.MulTier(xbits, ybits)
		r.par = c.Par != nil && c.Profile.MulParallelEngages(xbits, ybits)
	}
	return r
}

// A Tally collects the operations of one polynomial evaluation, or of
// one DotDiv, in plain fields: the multiplications with their model and
// actual cost, operand-size bucket and tier, and the additions. They
// reach the shared Counters in one flush, with one budget check,
// instead of several atomic updates per operation. The flushed counts
// are exactly what recording each operation on its own produces. The
// zero value is empty.
type Tally struct {
	muls, mulBits, mulBitsActual, adds, parMuls int64

	hist  [BitLenBuckets]int64
	tiers [mp.NumTiers]int64
}

// Mul tallies one multiplication of xbits-by-ybits operands under c's
// profile and parallel hook (see attributeMul).
func (t *Tally) Mul(c Ctx, xbits, ybits int) {
	r := c.attributeMul(xbits, ybits)
	t.muls++
	t.mulBits += r.bits
	t.mulBitsActual += r.actual
	t.hist[r.bucket]++
	if r.tiered {
		t.tiers[r.tier]++
	}
	if r.par {
		t.parMuls++
	}
}

// Add tallies one addition or subtraction.
func (t *Tally) Add() { t.adds++ }

// FlushEval records one complete evaluation in c's phase together with
// the operations tallied in t. The budget is checked once, after the
// whole evaluation, so a run overshoots MaxBitOps by at most one
// evaluation.
func (c Ctx) FlushEval(t *Tally) {
	if c.C != nil {
		c.C.addEval(c.Phase, t)
	}
}

// recordDiv logs one division with its model and actual cost.
func (c Ctx) recordDiv(xbits, ybits int) {
	if c.C == nil {
		return
	}
	c.C.AddDivCost(c.Phase, xbits, ybits, c.Profile.DivCost(xbits, ybits))
}

// DotDiv returns (Σ ±xᵢ·yᵢ) / d (see mp.DotDiv), computed in a
// workspace from c.Scratch, and records what building the same value
// from Mul, Add and DivExact records: one multiplication per term with a
// Y, with its operand bit lengths; adds additions; and, when d is
// non-nil, one division sized by the sum's bit length. The
// multiplications and additions reach the Counters in one flush before
// the arithmetic runs, the division after it.
func (c Ctx) DotDiv(d *mp.Int, adds int, terms ...mp.Term) *mp.Int {
	if c.C != nil {
		var t Tally
		for _, tm := range terms {
			if tm.Y != nil {
				t.Mul(c, tm.X.BitLen(), tm.Y.BitLen())
			}
		}
		t.adds = int64(adds)
		c.C.addTally(c.Phase, &t)
	}
	q, sumBits := mp.DotDiv(c.Profile, c.Par, c.Scratch, d, terms...)
	if d != nil {
		c.recordDiv(sumBits, d.BitLen())
	}
	return q
}

// Mul returns a new Int holding x*y, recording the multiplication.
func (c Ctx) Mul(x, y *mp.Int) *mp.Int { return c.DotDiv(nil, 0, mp.Term{X: x, Y: y}) }

// Sqr returns a new Int holding x², recording it as a multiplication.
func (c Ctx) Sqr(x *mp.Int) *mp.Int { return c.Mul(x, x) }

// QuoRem sets z = x quo y and r = x rem y (truncated division),
// recording the division, and returns (z, r).
func (c Ctx) QuoRem(z, x, y, r *mp.Int) (*mp.Int, *mp.Int) {
	c.recordDiv(x.BitLen(), y.BitLen())
	return z.QuoRemProfile(c.Profile, x, y, r)
}

// DivExact returns a new Int holding x/y (exact), recording the division.
func (c Ctx) DivExact(x, y *mp.Int) *mp.Int { return c.DotDiv(y, 0, mp.Term{X: x}) }

// Add returns a new Int holding x+y, recording the addition.
func (c Ctx) Add(x, y *mp.Int) *mp.Int {
	c.C.AddAdd(c.Phase)
	return new(mp.Int).Add(x, y)
}

// Sub returns a new Int holding x-y, recording the subtraction.
func (c Ctx) Sub(x, y *mp.Int) *mp.Int {
	c.C.AddAdd(c.Phase)
	return new(mp.Int).Sub(x, y)
}
