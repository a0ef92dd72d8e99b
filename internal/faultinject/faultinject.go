// Package faultinject builds deterministic, seed-derived fault plans
// for the solver's chaos suite. A Plan describes which scheduler tasks
// misbehave — panic, stall, trigger cancellation — and how tight the
// bit-operation budget is; the same seed always yields the same plan,
// so a chaos failure reproduces from nothing but its seed. The plan is
// delivered through core.Options.TaskHook, which core attaches as the
// last observer of the run's scheduler pool: before each task body runs
// it is called with the pool's task sequence number (0, 1, 2, … in
// execution order), inside the task's panic isolation.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// A Plan is one deterministic fault schedule. The zero value injects
// nothing. Sequence numbers refer to the pool's task-start order as
// numbered by the task hook; -1 disables the corresponding fault.
type Plan struct {
	Seed       int64         // seed the plan was derived from (informational)
	PanicAt    int64         // task sequence at which the hook panics; -1 = never
	CancelAt   int64         // task sequence at which the run's context is canceled; -1 = never
	DelayEvery int64         // every DelayEvery-th task sleeps for Delay; 0 = never
	Delay      time.Duration // per-stall duration when DelayEvery > 0
	MaxBitOps  int64         // bit-operation budget for the run; 0 = unlimited
}

// Panic is the value a planned task fault panics with, so chaos
// assertions can tell an injected panic apart from a genuine solver
// bug captured by the same recover.
type Panic struct {
	Seed int64 // plan that injected it
	Seq  int64 // task at which it fired
}

func (p Panic) String() string {
	return fmt.Sprintf("faultinject: planned panic (seed=%d, task=%d)", p.Seed, p.Seq)
}

// New derives a plan from seed. The mixture is roughly a quarter each
// of task panics, mid-run cancellations, tight bit budgets, and
// fault-free controls (which must come back bit-exact); independently,
// half of all plans stall a stride of tasks for a few microseconds to
// shift the scheduler's interleavings.
func New(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	pl := Plan{Seed: seed, PanicAt: -1, CancelAt: -1}
	switch rng.Intn(4) {
	case 0: // fault-free control
	case 1:
		pl.PanicAt = rng.Int63n(64)
	case 2:
		pl.CancelAt = rng.Int63n(64)
	case 3:
		// Low enough that any non-trivial instance trips it.
		pl.MaxBitOps = 500 + rng.Int63n(4000)
	}
	if rng.Intn(2) == 0 {
		pl.DelayEvery = 1 + rng.Int63n(7)
		pl.Delay = time.Duration(1+rng.Intn(40)) * time.Microsecond
	}
	return pl
}

// Hook returns the task hook implementing the plan, or nil when the
// plan has no per-task faults (budgets live in Options.MaxBitOps, not
// in the hook). cancel is the run context's CancelFunc, invoked at
// CancelAt; it may be nil when the plan never cancels. The hook is
// called concurrently from pool workers and is safe for that.
func (pl Plan) Hook(cancel context.CancelFunc) func(seq int64) {
	if pl.PanicAt < 0 && pl.CancelAt < 0 && pl.DelayEvery == 0 {
		return nil
	}
	return func(seq int64) {
		if pl.DelayEvery > 0 && seq%pl.DelayEvery == 0 {
			time.Sleep(pl.Delay)
		}
		if seq == pl.CancelAt && cancel != nil {
			cancel()
		}
		if seq == pl.PanicAt {
			panic(Panic{Seed: pl.Seed, Seq: seq})
		}
	}
}

// FaultFree reports whether the plan injects no fault that could make
// a run fail (stalls only perturb timing, never the outcome).
func (pl Plan) FaultFree() bool {
	return pl.PanicAt < 0 && pl.CancelAt < 0 && pl.MaxBitOps == 0
}

// String renders the plan compactly for failure messages.
func (pl Plan) String() string {
	s := fmt.Sprintf("plan(seed=%d", pl.Seed)
	if pl.PanicAt >= 0 {
		s += fmt.Sprintf(" panic@%d", pl.PanicAt)
	}
	if pl.CancelAt >= 0 {
		s += fmt.Sprintf(" cancel@%d", pl.CancelAt)
	}
	if pl.MaxBitOps > 0 {
		s += fmt.Sprintf(" budget=%d", pl.MaxBitOps)
	}
	if pl.DelayEvery > 0 {
		s += fmt.Sprintf(" delay=%v/%d", pl.Delay, pl.DelayEvery)
	}
	return s + ")"
}
