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
// the Fast profile's tier counts and the wall time differ between
// profiles.
type Ctx struct {
	C       *Counters
	Phase   Phase
	Profile mp.Profile
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

// A Tally collects the operations of one polynomial evaluation, or of
// one DotDiv, in plain fields: the multiplications with their model
// cost (the paper's §4 schoolbook measure, xbits·ybits), operand-size
// bucket and, under Fast, tier, and the additions. They reach the
// shared Counters in one flush, with one budget check, instead of
// several atomic updates per operation. The zero value is empty.
type Tally struct {
	muls, mulBits, adds int64

	hist  [BitLenBuckets]int64
	tiers [mp.NumTiers]int64
}

// Mul tallies one multiplication of xbits-by-ybits operands under c's
// profile: under Fast, in the tier mp.Profile.MulTier dispatches it to.
func (t *Tally) Mul(c Ctx, xbits, ybits int) {
	t.muls++
	t.mulBits += int64(xbits) * int64(ybits)
	t.hist[bitLenBucket(max(xbits, ybits))]++
	if c.Profile == mp.Fast {
		t.tiers[c.Profile.MulTier(xbits, ybits)]++
	}
}

// Horner tallies steps of a scaled Horner evaluation: step k
// multiplies an accumulator of lens[k] bits by an abits-bit point and
// adds one coefficient. mp.Horner runs every step on the 32-bit row
// loop under every profile, so under Fast each product is counted in
// TierSchoolbook whatever its width.
func (t *Tally) Horner(c Ctx, lens []int, abits int) {
	t.muls += int64(len(lens))
	t.adds += int64(len(lens))
	var sum int64
	for _, n := range lens {
		sum += int64(n)
		t.hist[bitLenBucket(max(n, abits))]++
	}
	t.mulBits += sum * int64(abits)
	if c.Profile == mp.Fast {
		t.tiers[mp.TierSchoolbook] += int64(len(lens))
	}
}

// FlushEval records one complete evaluation in c's phase together with
// the operations tallied in t. The budget is checked once, after the
// whole evaluation, so a run overshoots MaxBitOps by at most one
// evaluation.
func (c Ctx) FlushEval(t *Tally) {
	if c.C != nil {
		c.C.addEval(c.Phase, t)
	}
}

// FlushSign is FlushEval for a sign evaluation that kernel k decided.
// What it records does not depend on k, except the count of sign
// evaluations by kernel (Report.Signs).
func (c Ctx) FlushSign(t *Tally, k Kernel) {
	if c.C != nil {
		c.C.signs[c.Phase][k].Add(1)
		c.C.addEval(c.Phase, t)
	}
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
	q, sumBits := mp.DotDiv(c.Profile, c.Scratch, d, terms...)
	if d != nil {
		c.C.AddDiv(c.Phase, sumBits, d.BitLen())
	}
	return q
}

// Mul returns a new Int holding x*y, recording the multiplication.
func (c Ctx) Mul(x, y *mp.Int) *mp.Int { return c.DotDiv(nil, 0, mp.Term{X: x, Y: y}) }

// Sqr returns a new Int holding x², recording it as a multiplication.
func (c Ctx) Sqr(x *mp.Int) *mp.Int { return c.Mul(x, x) }

// QuoRem sets z = x quo y and r = x rem y (truncated division) in a
// workspace from c.Scratch, recording the division, and returns (z, r).
func (c Ctx) QuoRem(z, x, y, r *mp.Int) (*mp.Int, *mp.Int) {
	c.C.AddDiv(c.Phase, x.BitLen(), y.BitLen())
	return mp.QuoRem(c.Profile, c.Scratch, z, x, y, r)
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
