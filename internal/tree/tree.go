// Package tree builds the binary tree of interleaving polynomials
// P_{i,j} (paper §2.1). Each node [i,j] carries the polynomial
// P_{i,j}(x) of degree j-i+1 whose roots are isolated by the roots of
// its two children [i,k-1] and [k+1,j]; polynomials are represented by
// the integer 2×2 matrices
//
//	T_{i,j} = [ -P_{i+1,j-1}  P_{i,j-1} ]
//	          [ -P_{i+1,j}    P_{i,j}   ]      (Appendix A, Eq. 54)
//
// computed bottom-up by T_{i,j} = T_{k+1,j}·Ŝ_k·T_{i,k-1} / (c_k²c_{k-1}²)
// with Ŝ_k = c_{k-1}²·S_k = [[0, c_{k-1}²], [-c_k², Q_k]] (Eq. 9), where
// every division is exact. Nodes on the rightmost spine [i,n] take their
// polynomial P_{i,n} = F_{i-1} directly from the precomputed remainder
// sequence and perform no matrix products, matching the paper's
// accounting (§4.2 analyses only non-rightmost nodes; §4.3 costs the
// rightmost ones separately).
package tree

import (
	"fmt"

	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
)

// A Matrix2 is a 2×2 matrix of integer polynomials.
type Matrix2 [2][2]*poly.Poly

// Mul returns a·b, recording coefficient multiplications in ctx.
func (a *Matrix2) Mul(ctx metrics.Ctx, b *Matrix2) *Matrix2 {
	var z Matrix2
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			z[r][c] = MulEntry(ctx, a, b, r, c)
		}
	}
	return &z
}

// MulEntry returns entry (r, c) of a·b. The parallel implementation
// splits each matrix product into these four entry computations, one
// task per entry (§3.2).
func MulEntry(ctx metrics.Ctx, a, b *Matrix2, r, c int) *poly.Poly {
	return poly.MulAddCtx(ctx, a[r][0], b[0][c], a[r][1], b[1][c])
}

// DivExact returns a with every entry divided exactly by v.
func (a *Matrix2) DivExact(ctx metrics.Ctx, v *mp.Int) *Matrix2 {
	var z Matrix2
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			z[r][c] = a[r][c].DivExactIntCtx(ctx, v)
		}
	}
	return &z
}

// A Node is the tree node [i,j], representing P_{i,j}.
type Node struct {
	I, J int // 1 ≤ I ≤ J ≤ n
	K    int // split index: children are [I, K-1] and [K+1, J]; 0 for leaves

	Left, Right *Node // Right is nil when K == J (empty right child) or at leaves
	Parent      *Node

	P *poly.Poly // P_{i,j}, filled by ComputePoly
	T *Matrix2   // T_{i,j}; nil for rightmost nodes (J == n)

	// Roots holds the sorted µ-approximations of P's roots once the
	// node's interval problems have been solved.
	Roots []dyadic.Dyadic
}

// Size returns the number of roots of P_{i,j}, i.e. its degree j-i+1.
func (nd *Node) Size() int { return nd.J - nd.I + 1 }

// IsLeaf reports whether the node is a leaf [i,i].
func (nd *Node) IsLeaf() bool { return nd.I == nd.J }

// Label returns the "[i,j]" form used in the paper.
func (nd *Node) Label() string { return fmt.Sprintf("[%d,%d]", nd.I, nd.J) }

// Split returns the split index k for the interval [i,j]: the midpoint
// ⌊(i+j)/2⌋ for size ≥ 3 (keeping the tree balanced, §2.1), and j for
// size 2, where the right child [j+1, j] is empty and the single
// interleaving polynomial is P_{i,i}.
func Split(i, j int) int {
	if j-i+1 == 2 {
		return j
	}
	return (i + j) / 2
}

// Build constructs the tree skeleton over [1, n] (the top-down RECURSE
// phase of §3.2, without any polynomial computation). n ≥ 1.
func Build(n int) *Node {
	if n < 1 {
		panic(fmt.Sprintf("tree: invalid degree %d", n))
	}
	return build(1, n, nil)
}

func build(i, j int, parent *Node) *Node {
	nd := &Node{I: i, J: j, Parent: parent}
	if i == j {
		return nd
	}
	k := Split(i, j)
	nd.K = k
	nd.Left = build(i, k-1, nd)
	if k < j {
		nd.Right = build(k+1, j, nd)
	}
	return nd
}

// Walk visits every node in post-order (children before parents), the
// order in which polynomials can be computed sequentially.
func (nd *Node) Walk(f func(*Node)) {
	if nd.Left != nil {
		nd.Left.Walk(f)
	}
	if nd.Right != nil {
		nd.Right.Walk(f)
	}
	f(nd)
}

// Count returns the number of nodes in the subtree.
func (nd *Node) Count() int {
	n := 0
	nd.Walk(func(*Node) { n++ })
	return n
}

// SHat returns Ŝ_k = c_{k-1}²·S_k = [[0, c_{k-1}²], [-c_k², Q_k]] as an
// integer polynomial matrix (Eq. 9; for k = 1, c_0² = 1 by the Appendix
// A convention, giving Eq. 1's S_1 exactly).
func SHat(s *remseq.Sequence, k int) *Matrix2 {
	return &Matrix2{
		{poly.Zero(), poly.Constant(s.Csq(k - 1))},
		{poly.Constant(new(mp.Int).Neg(s.Csq(k))), s.Q[k].Clone()},
	}
}

// ComputePoly fills nd.P (and nd.T for non-rightmost nodes) from the
// remainder sequence and the children's already-computed matrices. For
// a non-rightmost internal node this performs the two 2×2 polynomial
// matrix products of Eq. 9; the scheduler-facing pieces of that product
// are exposed separately via MulEntry for the task-per-entry
// decomposition, and ComputePoly is the sequential composition of them.
func ComputePoly(s *remseq.Sequence, ctx metrics.Ctx, nd *Node) {
	ctx = ctx.In(metrics.PhaseTree)
	n := s.N
	if nd.J == n {
		// Rightmost spine: P_{i,n} = F_{i-1}, precomputed.
		nd.P = s.F[nd.I-1]
		return
	}
	if nd.IsLeaf() {
		nd.T = SHat(s, nd.I)
		nd.P = nd.T[1][1]
		return
	}
	k := nd.K
	m1 := SHat(s, k).Mul(ctx, nd.Left.T) // Ŝ_k · T_{i,k-1}
	var prod *Matrix2
	divisor := new(mp.Int).MulProfile(ctx.Profile, s.Csq(k), s.Csq(k-1))
	if nd.Right != nil {
		prod = nd.Right.T.Mul(ctx, m1) // T_{k+1,j} · (Ŝ_k · T_{i,k-1})
	} else {
		// Empty right child (k == j): T_{j+1,j} acts as c_j²·I, so the
		// second product is a scalar multiple; fold it into the divisor:
		// T = Ŝ_j·T_{i,j-1} / c_{j-1}².
		prod = m1
		divisor = s.Csq(k - 1)
	}
	nd.T = prod.DivExact(ctx, divisor)
	nd.P = nd.T[1][1]
}

// ComputeAllSequential computes every polynomial in the subtree in
// post-order. The parallel driver in internal/core replaces this with
// the task-graph version; results are identical.
func ComputeAllSequential(s *remseq.Sequence, ctx metrics.Ctx, root *Node) {
	root.Walk(func(nd *Node) { ComputePoly(s, ctx, nd) })
}

// CheckShape verifies the structural invariants of Theorem 1 on a
// computed subtree: deg P_{i,j} = j-i+1 and positive leading
// coefficients for all non-rightmost nodes. It returns the first
// violation found, and is used by tests and by the solver's optional
// self-check mode.
func CheckShape(root *Node, n int) error {
	var err error
	root.Walk(func(nd *Node) {
		if err != nil {
			return
		}
		if nd.P == nil {
			err = fmt.Errorf("tree: node %s has no polynomial", nd.Label())
			return
		}
		if got, want := nd.P.Degree(), nd.Size(); got != want {
			err = fmt.Errorf("tree: node %s has degree %d, want %d", nd.Label(), got, want)
			return
		}
		if nd.J < n && nd.P.Lead().Sign() <= 0 {
			err = fmt.Errorf("tree: node %s has non-positive leading coefficient", nd.Label())
		}
	})
	return err
}
