package mp

import "fmt"

// A Profile selects the arithmetic algorithms used for multiplication
// and division. It is an explicit per-operation value — carried by the
// callers' operation contexts, never package state — so concurrent
// computations may use different profiles without synchronization.
//
// The zero value is Schoolbook: quadratic multiplication and division,
// matching the UNIX "mp" package used by the paper's implementation and
// the cost model its analysis (§4) assumes. Fast substitutes the
// subquadratic kernels (block-decomposed Karatsuba multiplication and
// Burnikel–Ziegler divide-and-conquer division); results are identical,
// only the running time and the actual (as opposed to modeled) bit cost
// change.
type Profile uint8

const (
	// Schoolbook is the paper's arithmetic: O(n²) multiplication and
	// division. The default.
	Schoolbook Profile = iota
	// Fast uses Karatsuba multiplication and Burnikel–Ziegler division
	// above the small-operand thresholds.
	Fast

	numProfiles // sentinel for validation
)

// String returns the profile name.
func (p Profile) String() string {
	switch p {
	case Schoolbook:
		return "schoolbook"
	case Fast:
		return "fast"
	}
	return fmt.Sprintf("profile(%d)", uint8(p))
}

// Valid reports whether p is a defined profile.
func (p Profile) Valid() bool { return p < numProfiles }

// ParseProfile maps a profile name ("schoolbook"/"paper" or "fast") to
// its value.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "schoolbook", "paper":
		return Schoolbook, nil
	case "fast":
		return Fast, nil
	}
	return 0, fmt.Errorf("mp: unknown profile %q (want schoolbook, paper, or fast)", s)
}

// A tierTable holds the shorter-operand crossover thresholds, in
// 64-bit packed limbs, at which each multiplication tier engages. A
// zero threshold disables that tier. Tables are immutable
// configuration threaded through the kernels as a parameter — tier
// selection is a pure function of the call, never package state.
type tierTable struct {
	kar   int // Karatsuba at len ≥ kar, schoolbook row loop below
	toom3 int // Toom-3 at len ≥ toom3
	ntt   int // three-prime NTT at len ≥ ntt

	// count, when non-nil, accumulates the 64-bit limb products the
	// kernels perform (base-case rows exactly, NTT butterflies by their
	// closed form). Tests pin MulCost against it; nil — and unused — on
	// every non-test path.
	count *int64
}

// fastTiers is the Fast profile's tier table. The thresholds are
// measured crossovers from BenchmarkMulCrossover (DESIGN.md §12).
var fastTiers = tierTable{kar: kar64Threshold, toom3: toom64Threshold, ntt: ntt64Threshold}

// A Tier names the multiplication kernel a product of a given shape
// dispatches to, for per-tier metrics attribution.
type Tier uint8

const (
	// TierSchoolbook is the 32-bit schoolbook row loop (the paper's
	// kernel, and the Fast profile's base case below fastPackThreshold).
	TierSchoolbook Tier = iota
	// TierPacked is the 64-bit packed schoolbook row loop.
	TierPacked
	// TierKaratsuba is block-decomposed Karatsuba on packed limbs.
	TierKaratsuba
	// TierToom3 is the 5-point Toom-3 scheme.
	TierToom3
	// TierNTT is the three-prime CRT number-theoretic transform.
	TierNTT

	NumTiers int = iota // sentinel: number of defined tiers
)

// String returns the tier name used in metrics and JSON output.
func (t Tier) String() string {
	switch t {
	case TierSchoolbook:
		return "schoolbook"
	case TierPacked:
		return "packed"
	case TierKaratsuba:
		return "karatsuba"
	case TierToom3:
		return "toom3"
	case TierNTT:
		return "ntt"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// MulTier reports which multiplication tier an xbits-by-ybits product
// dispatches to under the profile. Block decomposition of unbalanced
// shapes reduces to balanced products of the shorter operand's size,
// so the shorter operand decides the tier.
func (p Profile) MulTier(xbits, ybits int) Tier {
	if p != Fast {
		return TierSchoolbook
	}
	short := min(xbits, ybits)
	lb := (short + limbBits - 1) / limbBits // 32-bit limbs
	if lb < fastPackThreshold {
		return TierSchoolbook
	}
	ly := (lb + 1) / 2 // packed limbs
	switch {
	case ly < fastTiers.kar:
		return TierPacked
	case fastTiers.ntt > 0 && ly >= fastTiers.ntt && nttWorthwhile(ly, ly):
		return TierNTT
	case fastTiers.toom3 > 0 && ly >= fastTiers.toom3:
		return TierToom3
	}
	return TierKaratsuba
}

// RowLoop reports whether every product with a ybits-bit operand, its
// other operand of any width, runs under the profile on the 32-bit
// schoolbook row loop: in TierSchoolbook, at exactly its model cost and
// never on the parallel path. Under Fast that holds for operands
// shorter than fastPackThreshold limbs, since the shorter operand
// decides the tier and Karatsuba's threshold is higher still.
func (p Profile) RowLoop(ybits int) bool {
	return p != Fast || (ybits+limbBits-1)/limbBits < fastPackThreshold
}

// mul returns x*y under the profile.
func (p Profile) mul(x, y nat) nat {
	if p == Fast {
		return natMulFast(x, y)
	}
	return natMulBasic(x, y)
}

// MulCost estimates the cost of multiplying xbits-by-ybits operands
// under the profile, in the paper's bit-operation unit (schoolbook cost
// = xbits·ybits). For Fast it mirrors mul64t's dispatch — block
// decomposition for unbalanced shapes, then the Karatsuba/Toom-3/NTT
// recursion the tier table selects — collapsed to a closed O(log n)
// walk. It is an estimate of work actually done, used by the metrics
// layer to report model vs actual cost side by side; the solver's
// bit-operation budget always charges the model cost, so this never
// affects results.
//
// Two former bugs are pinned by TestMulCostPinnedToKernel: the old
// closed form halved the recursion size with integer truncation
// (t /= 2, drifting from the kernel's ceil splits and compounding
// per level), and counted every block of an unbalanced product as
// full-width, so an (lb+1)-limb × lb-limb product was charged two full
// blocks — nearly 2× the work actually done.
func (p Profile) MulCost(xbits, ybits int) int64 {
	model := int64(xbits) * int64(ybits)
	if p != Fast || xbits == 0 || ybits == 0 {
		return model
	}
	la := (xbits + limbBits - 1) / limbBits
	lb := (ybits + limbBits - 1) / limbBits
	if la < lb {
		la, lb = lb, la
	}
	if lb < karatsubaThreshold {
		return model
	}
	// Count 64-bit limb products, as the packed kernel does, then
	// convert: one 64×64 product covers (2·limbBits)² bit units.
	c := mulCost64((la+1)/2, (lb+1)/2, fastTiers) * 4 * limbBits * limbBits
	if fast := int64(c); fast < model {
		return fast
	}
	return model
}

// mulCost64 mirrors mul64t's dispatch and returns the estimated number
// of 64-bit limb products it performs. Unbalanced shapes decompose into
// full blocks plus one partial block charged at its true size.
func mulCost64(lx, ly int, tab tierTable) float64 {
	if lx < ly {
		lx, ly = ly, lx
	}
	if ly <= 0 {
		return 0
	}
	if ly < tab.kar {
		return float64(lx) * float64(ly)
	}
	if lx > 2*ly {
		c := float64(lx/ly) * balMulCost64(ly, tab)
		if r := lx % ly; r > 0 {
			c += mulCost64(ly, r, tab)
		}
		return c
	}
	return balMulCost64((lx+ly+1)/2, tab)
}

// balMulCost64 collapses the balanced recursion tier by tier: Karatsuba
// contributes a ×3 branching factor on ceil(n/2) halves (matching the
// kernel's m = (n+1)/2 split, not a truncating n/2), Toom-3 a ×5 factor
// on ceil(n/3)+1 parts (the evaluations at 1, −1, 2 are one limb wider
// than the parts), and the NTT terminates the walk with its analytic
// butterfly count.
func balMulCost64(n int, tab tierTable) float64 {
	mult := 1.0
	for {
		switch {
		case n < tab.kar:
			return mult * float64(n) * float64(n)
		case tab.ntt > 0 && n >= tab.ntt && nttWorthwhile(n, n):
			return mult * nttCost64(n)
		case tab.toom3 > 0 && n >= tab.toom3:
			mult *= 5
			n = (n+2)/3 + 1
		default:
			mult *= 3
			n = (n + 1) / 2
		}
	}
}

// nttCostScale converts one Montgomery butterfly product to 64-bit
// limb-product units. Calibrated against BenchmarkMulCrossover so the
// model's Toom-3→NTT crossover tracks the measured one.
const nttCostScale = 1.0

// nttCost64 is the analytic cost of a balanced n×n-limb NTT product:
// three primes × (three transforms of (L/2)·log₂L butterflies, plus
// pointwise, scaling and twiddle-table passes of ~4L together).
func nttCost64(n int) float64 {
	logL := 1
	for 1<<logL < 4*n {
		logL++
	}
	L := float64(uint64(1) << logL)
	return nttCostScale * (9*(L/2)*float64(logL) + 12*L)
}

// DivCost estimates the cost of dividing an xbits dividend by a ybits
// divisor under the profile (schoolbook model cost = xbits·ybits). The
// Fast estimate charges the Burnikel–Ziegler recursion as roughly two
// fast multiplications of quotient-by-divisor shape.
//
// Below the Burnikel–Ziegler thresholds the Fast profile runs Knuth
// long division, which touches the divisor once per quotient limb:
// (qbits + limbBits)·ybits, not xbits·ybits. In particular a dividend
// no longer than the divisor costs a compare (and possibly one
// subtraction), linear in the operands — the old estimate returned the
// raw quadratic model for every xbits ≤ ybits shape, inflating the
// reported "actual" cost of the remainder sequence's equal-length
// divisions (pinned by TestDivCostEqualLength).
func (p Profile) DivCost(xbits, ybits int) int64 {
	model := int64(xbits) * int64(ybits)
	if p != Fast || xbits == 0 || ybits == 0 {
		return model
	}
	if xbits < ybits {
		return int64(xbits) + int64(ybits)
	}
	qbits := xbits - ybits
	school := (int64(qbits) + limbBits) * int64(ybits)
	if school > model {
		school = model
	}
	lv := (ybits + limbBits - 1) / limbBits
	lq := (qbits + limbBits - 1) / limbBits
	if lv < fastDivThreshold || lq < fastDivThreshold {
		return school
	}
	fast := 2 * p.MulCost(qbits, ybits)
	if fast < school {
		return fast
	}
	return school
}
