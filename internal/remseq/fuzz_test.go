package remseq

import (
	"errors"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// FuzzRemseqInterleaving feeds Compute polynomials with known distinct
// integer roots and checks the Theorem 1 root-interleaving invariant:
// every suffix F_i, F_{i+1}, …, F_n of the remainder sequence is itself
// a Sturm chain for F_i, so its sign-variation difference across the
// whole line must equal deg F_i = n-i exactly. A single wrong
// coefficient anywhere in the recurrence breaks the count for some
// suffix.
func FuzzRemseqInterleaving(f *testing.F) {
	f.Add([]byte{1, 255})         // roots 1, -1
	f.Add([]byte{3, 253, 10})     // roots 3, -3, 10
	f.Add([]byte{0, 5, 251, 100}) // roots 0, 5, -5, 100
	f.Add([]byte{7, 7, 7})        // collapses to the single root 7
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, rootBytes []byte) {
		if len(rootBytes) > 10 {
			return
		}
		// Distinct int8 roots → squarefree, all-real input by construction.
		seen := map[int64]bool{}
		var roots []*mp.Int
		for _, b := range rootBytes {
			r := int64(int8(b))
			if !seen[r] {
				seen[r] = true
				roots = append(roots, mp.NewInt(r))
			}
		}
		if len(roots) < 1 {
			return
		}
		p := poly.FromRoots(roots...)
		n := p.Degree()

		s, err := Compute(p, Options{})
		if err != nil {
			t.Fatalf("Compute rejected a squarefree all-real input (roots %v): %v", roots, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Validate (roots %v): %v", roots, err)
		}
		if got := s.RealRootCount(); got != n {
			t.Fatalf("RealRootCount = %d, want %d (roots %v)", got, n, roots)
		}

		// Theorem 1 via suffix chains: V_i(-∞) - V_i(+∞) = n - i, where
		// V_i counts the sign variations of F_i, …, F_n. The signs at
		// ±∞ come from leading coefficients alone, independent of the
		// variation machinery inside the package.
		signs := func(negInf bool) []int {
			out := make([]int, n+1)
			for j := 0; j <= n; j++ {
				if negInf {
					out[j] = s.F[j].SignAtNegInf()
				} else {
					out[j] = s.F[j].SignAtPosInf()
				}
			}
			return out
		}
		variations := func(sg []int) int {
			v := 0
			for j := 1; j < len(sg); j++ {
				if sg[j]*sg[j-1] < 0 {
					v++
				}
			}
			return v
		}
		neg, pos := signs(true), signs(false)
		for i := 0; i <= n; i++ {
			got := variations(neg[i:]) - variations(pos[i:])
			if got != n-i {
				t.Fatalf("suffix %d: V(-∞)-V(+∞) = %d, want %d (roots %v)", i, got, n-i, roots)
			}
		}

		// Cross-check the package's own variation counting at ±∞ and at
		// a point beyond every root (all int8 roots lie in [-128, 127]).
		if got := s.VariationsAtNegInf() - s.VariationsAtPosInf(); got != n {
			t.Fatalf("package variations across ℝ = %d, want %d (roots %v)", got, n, roots)
		}
		if got := s.CountRootsBelow(metrics.Ctx{}, mp.NewInt(200), 0); got != n {
			t.Fatalf("CountRootsBelow(200) = %d, want %d (roots %v)", got, n, roots)
		}
		if got := s.CountRootsBelow(metrics.Ctx{}, mp.NewInt(-200), 0); got != 0 {
			t.Fatalf("CountRootsBelow(-200) = %d, want 0 (roots %v)", got, roots)
		}
	})
}

// FuzzRemseqRepeatedRoots feeds Compute products ∏ (x - r_k)^{m_k} of
// distinct int8 roots with multiplicities 1–3, one (root, multiplicity)
// byte pair per factor, and checks the §2.3 detection under both
// arithmetic profiles: Compute reports repeated roots exactly when some
// m_k > 1, the reported n* is the number of distinct roots, and the
// carried gcd is gcd(p, p′) up to a non-zero scalar.
func FuzzRemseqRepeatedRoots(f *testing.F) {
	f.Add([]byte{1, 1, 255, 0})        // (x-1)²(x+1)
	f.Add([]byte{3, 2, 253, 1, 10, 0}) // (x-3)³(x+3)²(x-10)
	f.Add([]byte{0, 0, 5, 0})          // x(x-5), squarefree
	f.Add([]byte{7, 2})                // (x-7)³
	f.Add([]byte{1, 1, 2, 2, 3, 0, 4, 1, 5, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16 {
			return
		}
		seen := map[int64]bool{}
		p := poly.FromInt64s(1)
		distinct, repeated := 0, false
		for k := 0; k+1 < len(data); k += 2 {
			r := int64(int8(data[k]))
			if seen[r] {
				continue
			}
			seen[r] = true
			distinct++
			m := 1 + int(data[k+1]%3)
			repeated = repeated || m > 1
			for j := 0; j < m; j++ {
				p = p.MulLinear(mp.NewInt(r))
			}
		}
		if p.Degree() < 1 {
			return
		}
		for _, pr := range []mp.Profile{mp.Schoolbook, mp.Fast} {
			_, err := Compute(p, Options{Ctx: metrics.Ctx{Profile: pr}})
			if !repeated {
				if err != nil {
					t.Fatalf("profile %v: Compute rejected squarefree %s: %v", pr, p, err)
				}
				continue
			}
			var rr *RepeatedRootsError
			if !errors.As(err, &rr) || !errors.Is(err, ErrNotSquarefree) {
				t.Fatalf("profile %v: Compute(%s) = %v, want a *RepeatedRootsError", pr, p, err)
			}
			if rr.NStar != distinct {
				t.Fatalf("profile %v: %s: n* = %d, want %d distinct roots", pr, p, rr.NStar, distinct)
			}
			g := rr.GCD.PrimitivePartProfile(pr)
			if g.Lead().Sign() < 0 {
				g = g.Neg()
			}
			if want := poly.GCDProfile(p, p.Derivative(), pr); !g.Equal(want) {
				t.Fatalf("profile %v: %s: carried gcd %s, want %s", pr, p, g, want)
			}
		}
	})
}
