// Package remseq computes the standard remainder sequence
// F_0, F_1, …, F_n and the quotient sequence Q_1, …, Q_{n-1} of a
// squarefree real-rooted polynomial (paper §2.1), using the explicit
// per-coefficient recurrences of §3.1:
//
//	q_{i,1} = c_{i-1}·c_i
//	q_{i,0} = f_{i,n-i}·f_{i-1,n-i} - f_{i,n-i-1}·f_{i-1,n-i+1}
//	f_{i+1,j} = (f_{i,j}·q_{i,0} + f_{i,j-1}·q_{i,1} - c_i²·f_{i-1,j}) / c_{i-1}²
//
// (with the i = 1 step dividing by 1, matching F_2 = Q_1F_1 - c_1²F_0).
// All divisions are exact over ℤ (Collins 1967). Each iteration's
// coefficient computations are independent, which is exactly the
// parallelism the paper exploits in its precomputation phase; Compute
// optionally runs them on a sched.Pool, and the sequential path is the
// paper's run-time option of executing this stage on one processor.
//
// The sequence is also a Sturm chain (each F_{i+1} is a positive
// multiple of the negated remainder of the two previous terms), which
// this package exposes for root counting and input validation.
package remseq

import (
	"errors"
	"fmt"

	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sched"
)

// ErrNotSquarefree reports that the input has repeated roots. Compute
// returns it as a *RepeatedRootsError, which carries the gcd the
// sequence terminated with.
var ErrNotSquarefree = errors.New("remseq: polynomial has repeated roots")

// A RepeatedRootsError reports that the remainder sequence terminated
// early (§2.3): the row F_{NStar+1} came out all zero, so F_0 has
// repeated roots. It matches ErrNotSquarefree under errors.Is.
type RepeatedRootsError struct {
	// NStar is the index of the last non-zero row, which is the number
	// of distinct roots of F_0.
	NStar int
	// GCD is the row F_{NStar}: a non-zero scalar multiple of
	// gcd(F_0, F_0′), of degree N-NStar ≥ 1.
	GCD *poly.Poly
}

func (e *RepeatedRootsError) Error() string { return ErrNotSquarefree.Error() }

// Is reports target == ErrNotSquarefree.
func (e *RepeatedRootsError) Is(target error) bool { return target == ErrNotSquarefree }

// ErrNotAllReal reports that the input violates the algorithm's
// precondition that all roots are real: Compute saw the degree drop by
// more than one before any row came out all zero, which Theorem 1 and
// §2.3 rule out for real-rooted inputs, or Validate counted fewer real
// roots than the degree.
var ErrNotAllReal = errors.New("remseq: polynomial does not have all real roots")

// A Sequence holds the remainder and quotient sequences of F_0.
type Sequence struct {
	N   int          // degree of F_0
	F   []*poly.Poly // F[0..N]; deg F[i] = N-i; F[N] is a non-zero constant
	Q   []*poly.Poly // Q[1..N-1] linear; Q[0] is nil
	csq []*mp.Int    // csq[i] = c_i², c_i = lc(F[i]), except csq[0] = 1 (Appendix A's c_0 = ±1 convention)
}

// Options configures Compute.
type Options struct {
	// Pool, if non-nil, computes each iteration's coefficients in
	// parallel (§3.1), one task per coefficient. Nil runs sequentially
	// — the paper's run-time option for a sequential precomputation
	// stage.
	Pool *sched.Pool
	// Ctx records the arithmetic in the remainder phase.
	Ctx metrics.Ctx
	// Stop, if non-nil, is polled once per sequence iteration; a
	// non-nil return aborts Compute with that error (cancellation,
	// deadline, budget — the resilience layer's sequential-path hook).
	Stop func() error
}

// Compute returns the remainder sequence of p, which must be squarefree
// with all roots real and degree ≥ 1. When the sequence reveals a
// precondition violation it returns a *RepeatedRootsError (a row came
// out all zero) or ErrNotAllReal (the degree dropped by more than one,
// which Theorem 1 and §2.3 rule out for real-rooted inputs).
func Compute(p *poly.Poly, opts Options) (*Sequence, error) {
	n := p.Degree()
	if n < 1 {
		return nil, fmt.Errorf("remseq: degree %d polynomial has no roots to isolate", n)
	}
	f, q, last, err := recur(p, opts)
	if err != nil {
		return nil, err
	}
	if last < n {
		return nil, &RepeatedRootsError{NStar: last, GCD: poly.New(f[last]...)}
	}

	s := &Sequence{N: n, Q: q}
	s.F = make([]*poly.Poly, n+1)
	s.csq = make([]*mp.Int, n+1)
	for i := 0; i <= n; i++ {
		s.F[i] = poly.Adopt(f[i]) // the rows are the recurrence's own
		if i == 0 {
			s.csq[0] = mp.NewInt(1)
		} else {
			s.csq[i] = new(mp.Int).Sqr(s.F[i].Lead())
		}
	}
	return s, nil
}

// recur runs the recurrence from F_0 = p and F_1 = p′, returning the
// coefficient rows f (f[i][j] is the coefficient of x^j in F_i, and
// deg F_i = n-i) and the quotients q[1..n-1]. It stops at the last
// non-zero row F_last: last = n for a normal sequence, whose F_n is a
// non-zero constant, and last < n when F_{last+1} came out all zero.
func recur(p *poly.Poly, opts Options) ([][]*mp.Int, []*poly.Poly, int, error) {
	n := p.Degree()
	ctx := opts.Ctx.In(metrics.PhaseRemainder)

	// Plain locals, not named results: a straggler task of a canceled
	// pool may still read f after an early return.
	f := make([][]*mp.Int, n+1)
	f[0] = coeffs(p, n)
	f[1] = coeffs(p.Derivative(), n-1)
	q := make([]*poly.Poly, n)

	for i := 1; i < n; i++ {
		if opts.Stop != nil {
			if err := opts.Stop(); err != nil {
				return nil, nil, 0, err
			}
		}
		ci := f[i][n-i]      // c_i, non-zero: F_i has degree n-i
		ci1 := f[i-1][n-i+1] // c_{i-1}
		// q_{i,1} = c_{i-1}·c_i ; q_{i,0} = c_i·f_{i-1,n-i} - f_{i,n-i-1}·c_{i-1}.
		q1 := ctx.Mul(ci1, ci)
		q0 := ctx.DotDiv(nil, 1, mp.Term{X: ci, Y: f[i-1][n-i]}, mp.Term{X: f[i][n-i-1], Y: ci1, Neg: true})
		q[i] = poly.New(q0, q1)

		cisq := ctx.Sqr(ci)
		var divisor *mp.Int // nil divides by 1, and no division runs
		if i >= 2 {
			if d := ctx.Sqr(ci1); !d.IsOne() {
				divisor = d
			}
		}

		// f_{i+1,j} for 0 ≤ j ≤ n-i-1, each independent of the others:
		// one fused sum of products and exact division per coefficient.
		next := make([]*mp.Int, n-i)
		body := func(j int) {
			t0 := mp.Term{X: f[i][j], Y: q0}
			tc := mp.Term{X: cisq, Y: f[i-1][j], Neg: true}
			if j == 0 {
				next[j] = ctx.DotDiv(divisor, 1, t0, tc)
			} else {
				next[j] = ctx.DotDiv(divisor, 2, t0, mp.Term{X: f[i][j-1], Y: q1}, tc)
			}
		}
		if opts.Pool != nil {
			// On a canceled pool some iterations were drained (and a
			// straggler may still be writing next); abort without
			// reading the partial row.
			if err := opts.Pool.ParallelForTagged("precompute", n-i, body); err != nil {
				return nil, nil, 0, err
			}
		} else {
			for j := 0; j < n-i; j++ {
				body(j)
			}
		}
		f[i+1] = next

		if next[n-i-1].IsZero() {
			if allZero(next) {
				// F_{i+1} = 0: F_i is the gcd, and n* = i (§2.3).
				return f, q, i, nil
			}
			// Degree dropped by more than one: abnormal sequence.
			return nil, nil, 0, ErrNotAllReal
		}
	}
	return f, q, n, nil
}

func allZero(row []*mp.Int) bool {
	for _, v := range row {
		if !v.IsZero() {
			return false
		}
	}
	return true
}

func coeffs(p *poly.Poly, deg int) []*mp.Int {
	c := make([]*mp.Int, deg+1)
	for j := 0; j <= deg; j++ {
		c[j] = new(mp.Int).Set(p.Coeff(j))
	}
	return c
}

// Csq returns c_i² under the Appendix A convention c_0 = ±1 (so
// Csq(0) == 1). The returned value must not be mutated.
func (s *Sequence) Csq(i int) *mp.Int { return s.csq[i] }

// Variations returns the number of sign variations of
// F_0(x), F_1(x), …, F_n(x) at the dyadic point x = a/2^scale, skipping
// zeros, optionally recording the evaluations in ctx.
func (s *Sequence) Variations(ctx metrics.Ctx, a *mp.Int, scale uint) int {
	return s.variations(func(f *poly.Poly) int { return f.SignAtCtx(ctx, a, scale) })
}

// VariationsAtNegInf returns the sign variations of the chain as x → -∞.
func (s *Sequence) VariationsAtNegInf() int { return s.variations((*poly.Poly).SignAtNegInf) }

// VariationsAtPosInf returns the sign variations of the chain as x → +∞.
func (s *Sequence) VariationsAtPosInf() int { return s.variations((*poly.Poly).SignAtPosInf) }

// variations counts the sign variations of sign(F_0), …, sign(F_n),
// skipping zeros.
func (s *Sequence) variations(sign func(*poly.Poly) int) int {
	v, prev := 0, 0
	for _, fi := range s.F {
		sg := sign(fi)
		if sg == 0 {
			continue
		}
		if prev != 0 && sg != prev {
			v++
		}
		prev = sg
	}
	return v
}

// RealRootCount returns the number of distinct real roots of F_0 by
// Sturm's theorem applied to the whole real line.
func (s *Sequence) RealRootCount() int {
	return s.VariationsAtNegInf() - s.VariationsAtPosInf()
}

// CountRootsBelow returns the number of roots of F_0 in (-∞, a/2^scale),
// counting a root at the point itself as not below (Sturm variations
// skip zeros, so a chain zero at the sample point is attributed
// consistently for both endpoints of an interval query).
func (s *Sequence) CountRootsBelow(ctx metrics.Ctx, a *mp.Int, scale uint) int {
	return s.VariationsAtNegInf() - s.Variations(ctx, a, scale)
}

// Validate checks the Sturm-count invariant that F_0 has exactly N
// distinct real roots; it returns ErrNotAllReal otherwise. Compute's
// structural checks catch most violations, but a normal remainder
// sequence can still arise from polynomials with complex roots (e.g.
// x²+1), and this global count is the sound final check.
func (s *Sequence) Validate() error {
	if s.RealRootCount() != s.N {
		return ErrNotAllReal
	}
	return nil
}
