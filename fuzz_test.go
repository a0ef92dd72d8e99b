package realroots

import (
	"math/big"
	"testing"
)

// FuzzFindRootsSmall drives the entire pipeline with arbitrary small
// polynomials. The invariant: FindRoots either rejects the input with
// an error, or returns approximations x̃ such that the polynomial has a
// sign change on (x̃ - 2^-µ, x̃] (or vanishes at x̃) — verified by exact
// evaluation — with roots sorted and counted consistently.
func FuzzFindRootsSmall(f *testing.F) {
	f.Add([]byte{254, 0, 1}, uint(8))        // x² - 2
	f.Add([]byte{30, 233, 248, 1}, uint(16)) // (x+3)(x-1)(x-10)
	f.Add([]byte{4, 0, 253, 1}, uint(4))     // (x-2)²(x+1)
	f.Add([]byte{1, 0, 1}, uint(8))          // x² + 1 (rejected)
	f.Fuzz(func(t *testing.T, coeffBytes []byte, mu uint) {
		if len(coeffBytes) < 2 || len(coeffBytes) > 7 {
			return
		}
		mu = mu%24 + 1
		coeffs := make([]*big.Int, len(coeffBytes))
		for i, b := range coeffBytes {
			coeffs[i] = big.NewInt(int64(int8(b)))
		}
		res, err := FindRoots(coeffs, &Options{Precision: mu})
		if err != nil {
			return // rejected inputs (non-real roots, constants) are fine
		}
		step := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), mu))
		var prev *big.Rat
		total := 0
		// Group the reported roots by cell (distinct roots may share one
		// 2^-µ cell): the polynomial changes sign across a cell iff the
		// total multiplicity inside it is odd, and the sign test is
		// conclusive only when neither edge is itself a root.
		for i := 0; i < len(res.Roots); {
			j := i
			cellMult := 0
			for ; j < len(res.Roots) && res.Roots[j].Value.Cmp(res.Roots[i].Value) == 0; j++ {
				cellMult += res.Roots[j].Multiplicity
				total += res.Roots[j].Multiplicity
			}
			v := res.Roots[i].Value
			if prev != nil && prev.Cmp(v) > 0 {
				t.Fatalf("roots out of order: %v then %v", prev, v)
			}
			prev = v
			i = j

			hi := evalRat(coeffs, v)
			if hi.Sign() == 0 {
				continue // x̃ is itself a root: trivially in the cell
			}
			lo := evalRat(coeffs, new(big.Rat).Sub(v, step))
			if lo.Sign() == 0 {
				continue // a root sits exactly on the far edge: inconclusive
			}
			if cellMult%2 == 1 && lo.Sign()*hi.Sign() > 0 {
				t.Fatalf("no sign change in (x̃-2^-µ, x̃] at %v (coeffs %v, µ=%d)", v, coeffBytes, mu)
			}
			if cellMult%2 == 0 && lo.Sign()*hi.Sign() < 0 {
				t.Fatalf("unexpected sign change for even cell multiplicity at %v (coeffs %v, µ=%d)", v, coeffBytes, mu)
			}
		}
		if total != res.Degree {
			t.Fatalf("multiplicities sum to %d for degree %d (coeffs %v)", total, res.Degree, coeffBytes)
		}
	})
}

// FuzzFindRootsVsBigref drives the general-input entry points with
// small polynomials of any root structure, checking FindRealRoots'
// roots and CountRealRoots' count against bigref. Each solve has a
// deadline, so an input that hangs the solver fails instead of stalling
// the fuzzer. The seed corpus (testdata/fuzz) holds even and odd
// polynomials whose Sturm chains have negative leading coefficients and
// remainder steps that skip a degree.
func FuzzFindRootsVsBigref(f *testing.F) {
	f.Fuzz(func(t *testing.T, coeffBytes []byte, mu uint) {
		if len(coeffBytes) < 2 || len(coeffBytes) > 9 {
			return
		}
		coeffs := make([]*big.Int, len(coeffBytes))
		for i, b := range coeffBytes {
			coeffs[i] = big.NewInt(int64(int8(b)))
		}
		checkRealRootsVsBigref(t, coeffs, mu%24+1)
	})
}

// evalRat evaluates the polynomial at a rational point exactly.
func evalRat(coeffs []*big.Int, x *big.Rat) *big.Rat {
	v := new(big.Rat)
	for i := len(coeffs) - 1; i >= 0; i-- {
		v.Mul(v, x)
		v.Add(v, new(big.Rat).SetInt(coeffs[i]))
	}
	return v
}
