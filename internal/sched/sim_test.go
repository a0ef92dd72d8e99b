package sched

import (
	"sync/atomic"
	"testing"
	"time"
)

// spin burns roughly d of CPU time (sleep would not register as task
// work on the virtual processors in a meaningful way for assertions, but
// works fine too since we only measure elapsed time; use a busy loop for
// determinism under timer coarseness).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func TestSimulatedPoolRunsAllTasks(t *testing.T) {
	p := NewSimulatedPool(4)
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 64; i++ {
		p.SubmitTagged("task", func() { n.Add(1) })
	}
	p.Wait()
	if n.Load() != 64 {
		t.Fatalf("ran %d tasks", n.Load())
	}
	makespan, work := p.SimStats()
	if makespan <= 0 || work <= 0 {
		t.Fatalf("stats: makespan=%v work=%v", makespan, work)
	}
	if makespan > work {
		t.Fatalf("makespan %v exceeds total work %v", makespan, work)
	}
}

// testClock is a clock a test advances by hand, so a simulated pool's
// measured task durations are exactly the ones the test asks for.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// newClockedSimPool is NewSimulatedPool measuring task durations on the
// returned clock instead of the host's.
func newClockedSimPool(virtualWorkers int) (*Pool, *testClock) {
	clk := &testClock{}
	return start(1, &simState{procs: make([]time.Duration, virtualWorkers), now: clk.now}, nil), clk
}

func TestSimulatedSpeedupOfIndependentTasks(t *testing.T) {
	// 16 independent 2ms tasks on 4 virtual processors: the makespan is
	// work/4. One root task submits them all, so each is ready at the
	// root's virtual finish.
	p, clk := newClockedSimPool(4)
	defer p.Close()
	p.SubmitTagged("root", func() {
		for i := 0; i < 16; i++ {
			p.SubmitTagged("task", func() { clk.advance(2 * time.Millisecond) })
		}
	})
	p.Wait()
	makespan, work := p.SimStats()
	if makespan != 8*time.Millisecond || work != 32*time.Millisecond {
		t.Errorf("makespan %v, work %v; want 8ms and 32ms", makespan, work)
	}
	speedup := float64(work) / float64(makespan)
	if speedup < 3.2 || speedup > 4.01 {
		t.Fatalf("speedup %v, want ≈ 4 (makespan %v, work %v)", speedup, makespan, work)
	}
}

func TestSimulatedChainHasNoSpeedup(t *testing.T) {
	// A strict dependency chain cannot speed up regardless of P.
	p, clk := newClockedSimPool(8)
	defer p.Close()
	const depth = 10
	gates := make([]*Gate, depth+1)
	gates[depth] = NewGateTagged(p, 1, "task", func() {})
	for i := depth - 1; i >= 0; i-- {
		next := gates[i+1]
		gates[i] = NewGateTagged(p, 1, "task", func() {
			clk.advance(time.Millisecond)
			next.Done()
		})
	}
	gates[0].Done()
	p.Wait()
	makespan, work := p.SimStats()
	if makespan != depth*time.Millisecond || work != depth*time.Millisecond {
		t.Errorf("makespan %v, work %v; want %dms each", makespan, work, depth)
	}
	speedup := float64(work) / float64(makespan)
	if speedup > 1.2 {
		t.Fatalf("chain speedup %v > 1 (makespan %v, work %v)", speedup, makespan, work)
	}
}

func TestSimulatedSingleProcessorMakespanEqualsWork(t *testing.T) {
	p := NewSimulatedPool(1)
	defer p.Close()
	for i := 0; i < 8; i++ {
		p.SubmitTagged("task", func() { spin(500 * time.Microsecond) })
	}
	p.Wait()
	makespan, work := p.SimStats()
	if makespan != work {
		t.Fatalf("P=1: makespan %v != work %v", makespan, work)
	}
}

func TestSimulatedReadyTimePropagation(t *testing.T) {
	// Two sequential phases of 4 parallel tasks each (the second phase
	// gated on the first): on 4 processors the makespan is about two
	// task durations, not one.
	p, clk := newClockedSimPool(4)
	defer p.Close()
	const d = 2 * time.Millisecond
	gate := NewGateTagged(p, 4, "task", func() {
		for i := 0; i < 4; i++ {
			p.SubmitTagged("task", func() { clk.advance(d) })
		}
	})
	p.SubmitTagged("root", func() {
		for i := 0; i < 4; i++ {
			p.SubmitTagged("task", func() { clk.advance(d); gate.Done() })
		}
	})
	p.Wait()
	makespan, _ := p.SimStats()
	if makespan < 2*d*9/10 {
		t.Fatalf("makespan %v below two phase durations", makespan)
	}
	if makespan > 3*d {
		t.Fatalf("makespan %v far above two phase durations", makespan)
	}
}

func TestNonSimulatedPoolHasNoStats(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.SubmitTagged("task", func() {})
	p.Wait()
	if m, w := p.SimStats(); m != 0 || w != 0 {
		t.Fatalf("plain pool stats: %v %v", m, w)
	}
}

func TestSimulatedPoolRejectsBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSimulatedPool(0)
}
