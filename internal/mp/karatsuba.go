package mp

// Subquadratic multiplication for the Fast profile. The paper's
// arithmetic substrate (UNIX "mp") used only schoolbook multiplication,
// and the paper's analysis assumes quadratic multiplication cost, so
// none of this is used by the Schoolbook (paper-mode) profile; it backs
// Profile.Fast and the abl2 ablation.
//
// The kernels live in mul64.go and operate on 64-bit packed limbs:
// block decomposition for unbalanced operands (the longer operand is
// cut into blocks the size of the shorter one, so every recursion is
// nearly balanced — the naive both-operands split barely shrinks the
// long operand per level and degenerates to worse than schoolbook on,
// say, a 24-limb × 10000-limb product), then Karatsuba above
// kar64Threshold.

// natMulFast returns x*y as a new nat: the Fast profile's
// multiplication. Operands above fastPackThreshold are packed into
// 64-bit limbs, quartering the hardware multiply count relative to the
// 32-bit schoolbook loop, and multiplied subquadratically (see mul64To)
// in a transient workspace.
func natMulFast(x, y nat) nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	// From here on x is the longer operand.
	if len(y) < fastPackThreshold {
		return natMulBasic(x, y)
	}
	var w workspace
	return unpack(w.mul64(pack(nil, x), pack(nil, y), fastTiers))
}
