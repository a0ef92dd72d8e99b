package mp

import "sync/atomic"

// Parallel multiplication path. A single giant product in the
// remainder sequence serializes whichever scheduler worker runs it;
// above parMul64Threshold the product is worth splitting into quadrant
// panels that other workers can help with. The hook is the minimal
// interface a caller-supplied scheduler must satisfy — core adapts its
// *sched.Pool to it — and it is threaded per operation through the
// callers' operation contexts (metrics.Ctx), never package state,
// matching the profile design.
//
// The coordination must survive three scheduler behaviors: helpers may
// never run (a canceled pool drains its queue without executing),
// helpers may be killed at task start by fault injection (core's
// TaskHook, a pool observer, may panic), and Submit must not be waited
// on. So panels are claimed from an atomic counter: the caller
// participates in the claim loop, so every panel is computed even if no
// helper ever arrives, and the completion count — incremented even when
// a panel's computation panics — releases the caller, which then turns
// a helper's panic into its own deterministic panic instead of a silent
// wrong product or a deadlock.

// Parallel is the scheduler hook for the parallel multiplication path:
// Submit schedules a task to run concurrently with the caller and must
// not block. Tasks may be dropped without running (e.g. a canceled
// scheduler); correctness never depends on a submitted task executing.
type Parallel interface {
	Submit(task func())
}

// parMul64Threshold is the shorter-operand length, in 64-bit packed
// limbs, above which the product is split into quadrant panels.
// Measured: below ~100k bits the panel work inflation (the quadrant
// split undoes one level of subquadratic recursion) cancels the
// speedup (see DESIGN.md §12).
const parMul64Threshold = 1536 // ≈ 98k bits

// MulParallelEngages reports whether an xbits-by-ybits product under
// the profile is large and balanced enough for the parallel path. The
// metrics layer uses this to attribute parallel-path products.
func (p Profile) MulParallelEngages(xbits, ybits int) bool {
	if p != Fast {
		return false
	}
	lo, hi := min(xbits, ybits), max(xbits, ybits)
	return parMulEngages(((hi+limbBits-1)/limbBits+1)/2, ((lo+limbBits-1)/limbBits+1)/2)
}

// parMulEngages is MulParallelEngages on packed limb counts lx ≥ ly.
func parMulEngages(lx, ly int) bool {
	return ly >= parMul64Threshold && lx <= 2*ly
}

// parMul64 multiplies quasi-balanced packed operands by splitting both
// at m = ceil(len(x)/2) and computing the up-to-four quadrant panels
// x_i·y_j concurrently. Panel products run through mul64t, so each
// re-tiers on its own size; the serial recombination is O(n).
func parMul64(x, y []uint64, par Parallel, tab tierTable) []uint64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	m := (len(x) + 1) / 2
	type panel struct {
		xs, ys []uint64
		shift  int
		out    []uint64
	}
	var panels []*panel
	addPanel := func(xs, ys []uint64, shift int) {
		if len(xs) > 0 && len(ys) > 0 {
			panels = append(panels, &panel{xs: xs, ys: ys, shift: shift})
		}
	}
	x0, x1 := norm64(x[:m]), norm64(x[m:])
	y0, y1 := y, []uint64(nil)
	if m < len(y) {
		y0, y1 = norm64(y[:m]), norm64(y[m:])
	}
	addPanel(x0, y0, 0)
	addPanel(x0, y1, m)
	addPanel(x1, y0, m)
	addPanel(x1, y1, 2*m)

	n := len(panels)
	if n == 0 { // zero operand: no panels would ever close finished
		return nil
	}
	var next, done atomic.Int32
	var failed atomic.Bool
	finished := make(chan struct{})
	body := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			p := panels[i]
			func() {
				completed := false
				defer func() {
					if !completed {
						failed.Store(true)
					}
					if int(done.Add(1)) == n {
						close(finished)
					}
				}()
				p.out = mul64t(p.xs, p.ys, tab)
				completed = true
			}()
		}
	}
	for i := 1; i < n; i++ {
		par.Submit(body)
	}
	body()
	<-finished
	if failed.Load() {
		panic("mp: parallel multiplication panel panicked")
	}

	z := make([]uint64, len(x)+len(y))
	for _, p := range panels {
		accumAt64(z, p.out, p.shift)
	}
	return norm64(z)
}
