package main

import (
	"fmt"
	"math/big"
	"runtime"

	"realroots/internal/oracle/bigref"
)

// answerRoot is one root of an answer: its µ-approximation and its
// multiplicity.
type answerRoot struct {
	value *big.Rat
	mult  int
}

// checked is the outcome of checking a run's calls.
type checked struct {
	first [][]answerRoot // each input's first answer, by input id; nil if it was never answered
	good  []bool         // per call: answered, with an answer that passed the check
	err   error          // the first failure, or nil
}

// checkCalls checks every answered call. Each input's first answer goes
// through checkAnswer once, on all CPUs, outside any timed phase. The
// check accepts exactly one root list per input, so every later answer
// to the same input must equal the first: one that differs is wrong,
// whichever of the two is. err names the first call whose answer
// differs, or else the first input whose answer failed the check.
func checkCalls(ins []*input, calls []call) checked {
	c := checked{first: make([][]answerRoot, len(ins)), good: make([]bool, len(calls))}
	shareAnswers(c.first, calls)
	verified := make([]bool, len(ins))
	errs := make([]error, len(ins))
	parallel(len(ins), runtime.NumCPU(), func(i int) {
		in := ins[i]
		if c.first[in.id] == nil {
			return
		}
		if err := checkAnswer(in.coeffs, in.mu, c.first[in.id]); err != nil {
			errs[i] = fmt.Errorf("%s (seed %d): %w", in.cell(), in.seed, err)
			return
		}
		verified[in.id] = true
	})
	for i, cl := range calls {
		if cl.err != nil {
			continue
		}
		same := sameAnswer(c.first[cl.in.id], cl.roots)
		if !same && c.err == nil {
			c.err = fmt.Errorf("%s (seed %d), pass %d: the answer differs from the input's first answer", cl.in.cell(), cl.in.seed, cl.pass)
		}
		c.good[i] = same && verified[cl.in.id]
	}
	for _, err := range errs {
		if c.err == nil {
			c.err = err
		}
	}
	return c
}

// shareAnswers records in seen each input's first answer and points
// every later equal answer at it, so that a run holds one copy of each
// distinct answer however many passes it measures. The heap retained
// after the measured phase then holds the program's memory, not the
// benchmark's record of every call. An answer that differs keeps its own
// copy, for checkCalls to find.
func shareAnswers(seen [][]answerRoot, calls []call) {
	for i := range calls {
		c := &calls[i]
		if c.err != nil {
			continue
		}
		if f := seen[c.in.id]; f == nil {
			seen[c.in.id] = c.roots
		} else if sameAnswer(f, c.roots) {
			c.roots = f
		}
	}
}

func sameAnswer(a, b []answerRoot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].mult != b[i].mult || a[i].value.Cmp(b[i].value) != 0 {
			return false
		}
	}
	return true
}

// checkAnswer verifies an answer with internal/oracle/bigref, which
// works in math/big and shares no code with internal/mp or the solver.
// It accepts ans exactly when ans is the ascending list of the
// µ-approximations 2^-µ·⌈2^µ·x⌉ of the distinct real roots x, which is
// what bigref.FindRoots returns, and the multiplicities add up to the
// degree (every input this benchmark sends has only real roots).
//
// It certifies instead of recomputing: each returned grid point v with
// count c must hold c distinct roots in (v-2^-µ, v], and the counts must
// add up to bigref.CountRoots. The intervals of distinct grid points are
// disjoint, so no root is left over and each lands on its own v. A sign
// change of p over the interval proves c = 1 cheaply; otherwise a Sturm
// count (bigref.CountRootsIn) decides. This costs O(deg) evaluations
// instead of bigref.FindRoots' O(deg·µ) Sturm-chain bisections, about a
// second per degree-12 µ=1024 input.
func checkAnswer(coeffs []*big.Int, mu uint, ans []answerRoot) error {
	distinct, err := bigref.CountRoots(coeffs)
	if err != nil {
		return err
	}
	if len(ans) != distinct {
		return fmt.Errorf("%d roots returned, the polynomial has %d distinct real roots", len(ans), distinct)
	}
	p := bigref.NewPoly(coeffs)
	grid := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), mu))
	step := new(big.Rat).Inv(grid)
	total := 0
	for i := 0; i < len(ans); {
		v := ans[i].value
		if i > 0 && ans[i-1].value.Cmp(v) > 0 {
			return fmt.Errorf("roots not ascending at %d", i)
		}
		if !new(big.Rat).Mul(v, grid).IsInt() {
			return fmt.Errorf("root %s is not on the 2^-%d grid", v.RatString(), mu)
		}
		j := i + 1
		for j < len(ans) && ans[j].value.Cmp(v) == 0 {
			j++
		}
		lo := new(big.Rat).Sub(v, step)
		sv, slo := p.SignAtRat(v), p.SignAtRat(lo)
		if j-i != 1 || (sv != 0 && sv*slo >= 0) {
			k, err := bigref.CountRootsIn(coeffs, lo, v)
			if err != nil {
				return err
			}
			if k != j-i {
				return fmt.Errorf("(%s, %s] holds %d distinct roots, answer lists %d", lo.RatString(), v.RatString(), k, j-i)
			}
		}
		for _, r := range ans[i:j] {
			if r.mult < 1 {
				return fmt.Errorf("root %s has multiplicity %d", v.RatString(), r.mult)
			}
			if sv == 0 && j-i == 1 {
				if m := zeroOrder(coeffs, v); m != r.mult {
					return fmt.Errorf("exact root %s has multiplicity %d, answer says %d", v.RatString(), m, r.mult)
				}
			}
			total += r.mult
		}
		i = j
	}
	if total != p.Degree() {
		return fmt.Errorf("multiplicities add up to %d, degree is %d", total, p.Degree())
	}
	return nil
}

// zeroOrder returns the multiplicity of the exact root v: the number of
// successive derivatives of the polynomial that vanish at v.
func zeroOrder(coeffs []*big.Int, v *big.Rat) int {
	m := 0
	d := coeffs
	for len(d) > 1 && bigref.NewPoly(d).SignAtRat(v) == 0 {
		m++
		next := make([]*big.Int, len(d)-1)
		for i := range next {
			next[i] = new(big.Int).Mul(d[i+1], big.NewInt(int64(i+1)))
		}
		d = next
	}
	return m
}

// refCharPoly returns det(xI - A) of an integer matrix in ascending
// coefficient order by the Faddeev–LeVerrier recurrence in math/big,
// independently of internal/charpoly: it is the reference polynomial
// for answers to matrix-form requests.
func refCharPoly(rows [][]int64) []*big.Int {
	n := len(rows)
	a := make([][]*big.Int, n)
	for i, row := range rows {
		a[i] = make([]*big.Int, n)
		for j, v := range row {
			a[i][j] = big.NewInt(v)
		}
	}
	mul := func(x, y [][]*big.Int) [][]*big.Int {
		z := make([][]*big.Int, n)
		t := new(big.Int)
		for i := range z {
			z[i] = make([]*big.Int, n)
			for j := range z[i] {
				s := new(big.Int)
				for k := 0; k < n; k++ {
					s.Add(s, t.Mul(x[i][k], y[k][j]))
				}
				z[i][j] = s
			}
		}
		return z
	}
	trace := func(x [][]*big.Int) *big.Int {
		s := new(big.Int)
		for i := range x {
			s.Add(s, x[i][i])
		}
		return s
	}
	c := make([]*big.Int, n+1)
	c[n] = big.NewInt(1)
	am := a // A·M_1 with M_1 = I
	for k := 1; k <= n; k++ {
		if k > 1 {
			m := make([][]*big.Int, n) // M_k = A·M_{k-1} + c_{n-k+1}·I
			for i := range m {
				m[i] = make([]*big.Int, n)
				for j := range m[i] {
					m[i][j] = new(big.Int).Set(am[i][j])
				}
				m[i][i].Add(m[i][i], c[n-k+1])
			}
			am = mul(a, m)
		}
		c[n-k] = new(big.Int).Quo(trace(am), big.NewInt(int64(-k))) // exact: c_{n-k} = -tr(A·M_k)/k
	}
	return c
}
