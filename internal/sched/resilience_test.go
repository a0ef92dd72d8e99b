package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waitOrFatal fails the test if p.Wait does not return within the
// deadline — the watchdog that turns the historical panic-deadlock
// (worker goroutine dies, outstanding never decrements, Wait blocks
// forever) into a test failure instead of a hung test binary.
func waitOrFatal(t *testing.T, p *Pool, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("Wait did not return: panic-deadlock regression")
	}
}

func TestPanicDoesNotDeadlockWait(t *testing.T) {
	// Regression: before panic isolation, a panicking task killed its
	// worker goroutine without decrementing outstanding, so Wait hung
	// forever (and the unrecovered panic could crash the process).
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		p.SubmitTagged("task", func() { ran.Add(1) })
	}
	p.SubmitTagged("task", func() { panic("boom") })
	waitOrFatal(t, p, 5*time.Second)

	var pe *PanicError
	if err := p.Err(); !errors.As(err, &pe) {
		t.Fatalf("Err = %v, want *PanicError", err)
	} else if fmt.Sprint(pe.Value) != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	} else if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

func TestWorkersSurviveTaskPanic(t *testing.T) {
	// All workers panic once; the pool must still drain later
	// submissions (drained, not run, since the pool is canceled — the
	// point is that Wait and Close still function).
	p := NewPool(4)
	for i := 0; i < 4; i++ {
		p.SubmitTagged("task", func() { panic(i) })
	}
	waitOrFatal(t, p, 5*time.Second)
	for i := 0; i < 100; i++ {
		p.SubmitTagged("task", func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	p.Close() // must not hang or panic
}

func TestCancelDrainsQueue(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var ran atomic.Int64
	block := make(chan struct{})
	p.SubmitTagged("task", func() { <-block })
	for i := 0; i < 50; i++ {
		p.SubmitTagged("task", func() { ran.Add(1) })
	}
	cause := errors.New("stop now")
	p.Cancel(cause)
	close(block)
	waitOrFatal(t, p, 5*time.Second)
	if ran.Load() != 0 {
		t.Fatalf("%d queued tasks ran after Cancel", ran.Load())
	}
	if err := p.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want %v", err, cause)
	}
	if !p.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelNilUsesSentinel(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.Cancel(nil)
	if err := p.Err(); !errors.Is(err, ErrPoolCanceled) {
		t.Fatalf("Err = %v, want ErrPoolCanceled", err)
	}
}

func TestFirstFailureWins(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	first := errors.New("first")
	p.Cancel(first)
	p.Cancel(errors.New("second"))
	p.SubmitTagged("task", func() { panic("third") })
	waitOrFatal(t, p, 5*time.Second)
	if err := p.Err(); !errors.Is(err, first) {
		t.Fatalf("Err = %v, want first failure", err)
	}
}

// TestTaskHookSeesEveryTask: a counting observer — the shape of core's
// fault-injection hook — numbers every task densely, 0..n-1, in
// execution order.
func TestTaskHookSeesEveryTask(t *testing.T) {
	c := &countingObserver{}
	p := NewPool(4, c)
	defer p.Close()
	const n = 200
	for i := 0; i < n; i++ {
		p.SubmitTagged("task", func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	seen := c.seqs()
	if len(seen) != n {
		t.Fatalf("observer saw %d tasks, want %d", len(seen), n)
	}
	slices.Sort(seen)
	for i, s := range seen {
		if s != int64(i) {
			t.Fatalf("sequence numbers %v, want 0..%d", seen, n-1)
		}
	}
}

// TestTaskHookPanicBecomesPoolError: when the last observer's TaskStart
// panics, the pool fails with a *PanicError carrying the panic value,
// and every earlier observer still sees a balanced start and done for
// each task it saw start.
func TestTaskHookPanicBecomesPoolError(t *testing.T) {
	rec := &recordingObserver{}
	hook := &countingObserver{panicAt: 3}
	p := NewPool(2, rec, hook)
	defer p.Close()
	for i := 0; i < 20; i++ {
		p.SubmitTagged("task", func() {})
	}
	waitOrFatal(t, p, 5*time.Second)
	var pe *PanicError
	if err := p.Err(); !errors.As(err, &pe) || pe.Value != "injected" {
		t.Fatalf("Err = %v, want *PanicError from the observer", err)
	}
	by := rec.byKind()
	if len(by["start"]) < 4 || len(by["start"]) != len(by["done"]) {
		t.Fatalf("unbalanced start/done: %d/%d", len(by["start"]), len(by["done"]))
	}
}

func TestParallelForReturnsOnCancel(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	cause := errors.New("abort")
	start := make(chan struct{})
	var once atomic.Bool
	err := p.ParallelForTagged("task", 1000, func(i int) {
		if once.CompareAndSwap(false, true) {
			close(start)
			p.Cancel(cause)
		}
	})
	<-start
	if !errors.Is(err, cause) {
		t.Fatalf("ParallelFor = %v, want %v", err, cause)
	}
	waitOrFatal(t, p, 5*time.Second)
}

func TestParallelForPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	err := p.ParallelForTagged("task", 100, func(i int) {
		if i == 41 {
			panic("iteration failed")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ParallelFor = %v, want *PanicError", err)
	}
	waitOrFatal(t, p, 5*time.Second)
}

func TestParallelForHealthyReturnsNil(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	out := make([]int, 500)
	if err := p.ParallelForTagged("task", len(out), func(i int) { out[i] = i }); err != nil {
		t.Fatalf("ParallelFor = %v", err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestExecutedExcludesDrainedAndPanicked(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	block := make(chan struct{})
	p.SubmitTagged("task", func() { <-block })  // completes: counted
	p.SubmitTagged("task", func() { panic(1) }) // panics: not counted
	p.SubmitTagged("task", func() {})           // drained after the panic: not counted
	close(block)
	waitOrFatal(t, p, 5*time.Second)
	if got := p.Executed(); got != 1 {
		t.Fatalf("Executed = %d, want 1", got)
	}
}
