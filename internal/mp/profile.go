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
// only the running time changes.
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

// mul returns x*y under the profile.
func (p Profile) mul(x, y nat) nat {
	if p == Fast {
		return natMulFast(x, y)
	}
	return natMulBasic(x, y)
}
