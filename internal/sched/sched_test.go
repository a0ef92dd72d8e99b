package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitAndWait(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.SubmitTagged("task", func() { n.Add(1) })
	}
	p.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	if p.Executed() != 100 {
		t.Fatalf("Executed = %d", p.Executed())
	}
}

func TestTasksSubmitTasks(t *testing.T) {
	// Recursive task spawning: a binary fan-out tree of depth 10.
	p := NewPool(8)
	defer p.Close()
	var leaves atomic.Int64
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		p.SubmitTagged("task", func() { spawn(depth - 1) })
		p.SubmitTagged("task", func() { spawn(depth - 1) })
	}
	p.SubmitTagged("task", func() { spawn(10) })
	p.Wait()
	if leaves.Load() != 1024 {
		t.Fatalf("leaves = %d, want 1024", leaves.Load())
	}
}

func TestWaitReturnsAfterNestedCompletion(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var order []int
	var mu sync.Mutex
	p.SubmitTagged("task", func() {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		p.SubmitTagged("task", func() {
			mu.Lock()
			order = append(order, 2)
			mu.Unlock()
		})
	})
	p.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSingleWorkerIsSequential(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var running atomic.Int32
	var maxSeen atomic.Int32
	for i := 0; i < 50; i++ {
		p.SubmitTagged("task", func() {
			cur := running.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
		})
	}
	p.Wait()
	if maxSeen.Load() != 1 {
		t.Fatalf("max concurrency %d with 1 worker", maxSeen.Load())
	}
}

func TestParallelFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out := make([]int, 1000)
	p.ParallelForTagged("task", len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Zero and negative n are no-ops.
	p.ParallelForTagged("task", 0, func(int) { t.Error("called") })
	p.ParallelForTagged("task", -3, func(int) { t.Error("called") })
}

func TestParallelForGrainOne(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var n atomic.Int64
	p.ParallelForTagged("task", 64, func(i int) { n.Add(1) })
	if n.Load() != 64 {
		t.Fatalf("ran %d iterations", n.Load())
	}
	p.Wait()
	if got := p.Executed(); got != 64 {
		t.Fatalf("ran %d tasks, want one per iteration", got)
	}
}

func TestGateFiresAfterAllDeps(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var fired atomic.Bool
	g := NewGateTagged(p, 3, "task", func() { fired.Store(true) })
	g.Done()
	g.Done()
	p.Wait()
	if fired.Load() {
		t.Fatal("gate fired early")
	}
	g.Done()
	p.Wait()
	if !fired.Load() {
		t.Fatal("gate never fired")
	}
}

func TestGateZeroDepsFiresImmediately(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var fired atomic.Bool
	NewGateTagged(p, 0, "task", func() { fired.Store(true) })
	p.Wait()
	if !fired.Load() {
		t.Fatal("zero-dep gate never fired")
	}
}

func TestGateOverDonePanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	g := NewGateTagged(p, 1, "task", func() {})
	g.Done()
	p.Wait()
	defer func() {
		if recover() == nil {
			t.Fatal("extra Done did not panic")
		}
	}()
	g.Done()
}

func TestGateChain(t *testing.T) {
	// A dependency chain: each gate enables the next; mirrors the
	// bottom-up tree traversal pattern.
	p := NewPool(4)
	defer p.Close()
	const depth = 200
	var progress atomic.Int64
	gates := make([]*Gate, depth)
	for i := depth - 1; i >= 0; i-- {
		i := i
		next := func() {
			progress.Add(1)
			if i+1 < depth {
				gates[i+1].Done()
			}
		}
		gates[i] = NewGateTagged(p, 1, "task", next)
	}
	gates[0].Done()
	p.Wait()
	if progress.Load() != depth {
		t.Fatalf("progress = %d, want %d", progress.Load(), depth)
	}
}

func TestNewPoolRejectsBadWorkerCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestCloseDrainsQueue(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	for i := 0; i < 500; i++ {
		p.SubmitTagged("task", func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 500 {
		t.Fatalf("Close lost tasks: ran %d", n.Load())
	}
}

func TestManyWaiters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var done atomic.Int64
	for i := 0; i < 20; i++ {
		p.SubmitTagged("task", func() { time.Sleep(time.Millisecond); done.Add(1) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Wait()
			if done.Load() != 20 {
				t.Error("Wait returned before tasks finished")
			}
		}()
	}
	wg.Wait()
}
