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
}

// In returns a copy of the context attributed to phase p.
func (c Ctx) In(p Phase) Ctx { return Ctx{C: c.C, Phase: p, Profile: c.Profile, Par: c.Par} }

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
// multiplication records, whether it is recorded at once (recordMul)
// or tallied with the rest of an evaluation (Tally.Mul).
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

// recordMul logs one multiplication (see attributeMul).
func (c Ctx) recordMul(xbits, ybits int) {
	if c.C == nil {
		return
	}
	c.C.addMul(c.Phase, c.attributeMul(xbits, ybits))
}

// A Tally collects the operations of one polynomial evaluation in plain
// fields: the multiplications with their model and actual cost,
// operand-size bucket and tier, and the additions. They reach the
// shared Counters in one FlushEval, with one budget check, instead of
// several atomic updates per Horner step. The flushed counts are
// exactly what recording each operation through the Ctx produces. The
// zero value is empty.
type Tally struct {
	muls, mulBits, mulBitsActual, adds, parMuls int64

	hist  [BitLenBuckets]int64
	tiers [mp.NumTiers]int64
}

// Mul tallies one multiplication of xbits-by-ybits operands under c's
// profile and parallel hook, as recordMul records it.
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

// Mul returns a new Int holding x*y, recording the multiplication.
func (c Ctx) Mul(x, y *mp.Int) *mp.Int {
	c.recordMul(x.BitLen(), y.BitLen())
	if c.Par != nil {
		return new(mp.Int).MulParallelProfile(c.Profile, c.Par, x, y)
	}
	return new(mp.Int).MulProfile(c.Profile, x, y)
}

// MulInto sets z = x*y, recording the multiplication.
func (c Ctx) MulInto(z, x, y *mp.Int) *mp.Int {
	c.recordMul(x.BitLen(), y.BitLen())
	if c.Par != nil {
		return z.MulParallelProfile(c.Profile, c.Par, x, y)
	}
	return z.MulProfile(c.Profile, x, y)
}

// Sqr returns a new Int holding x², recording it as a multiplication.
func (c Ctx) Sqr(x *mp.Int) *mp.Int {
	b := x.BitLen()
	c.recordMul(b, b)
	if c.Par != nil && c.Profile.MulParallelEngages(b, b) {
		return new(mp.Int).MulParallelProfile(c.Profile, c.Par, x, x)
	}
	return new(mp.Int).SqrProfile(c.Profile, x)
}

// QuoRem sets z = x quo y and r = x rem y (truncated division),
// recording the division, and returns (z, r).
func (c Ctx) QuoRem(z, x, y, r *mp.Int) (*mp.Int, *mp.Int) {
	c.recordDiv(x.BitLen(), y.BitLen())
	return z.QuoRemProfile(c.Profile, x, y, r)
}

// DivExact returns a new Int holding x/y (exact), recording the division.
func (c Ctx) DivExact(x, y *mp.Int) *mp.Int {
	c.recordDiv(x.BitLen(), y.BitLen())
	return new(mp.Int).DivExactProfile(c.Profile, x, y)
}

// DivExactInto sets z = x/y (exact), recording the division.
func (c Ctx) DivExactInto(z, x, y *mp.Int) *mp.Int {
	c.recordDiv(x.BitLen(), y.BitLen())
	return z.DivExactProfile(c.Profile, x, y)
}

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
