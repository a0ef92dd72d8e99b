// Package sched implements the dynamic-scheduling work pool described in
// §3 of the paper: the algorithm's computations are divided into tasks
// kept in a task queue; whenever a processor becomes free it picks the
// first task from the queue, and completing a task usually causes other
// tasks to be added. Workers are goroutines; the worker count plays the
// role of the paper's processor count (1..19 on the Sequent Symmetry).
//
// Tasks must never block waiting for other tasks: dependencies are
// expressed with Gate continuation counters, exactly like the per-node
// status records the paper uses for synchronization (§3.2).
//
// Unlike the paper's dedicated processors, pool workers survive task
// failures: a panicking task is recovered into a first-failure error
// (Err) and cancels the pool, after which the remaining queue is
// drained without executing — Wait always returns, Close never leaks a
// worker, and the caller observes one typed error instead of a crashed
// process or a hung Wait.
package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPoolCanceled is the error recorded by Cancel(nil).
var ErrPoolCanceled = errors.New("sched: pool canceled")

// A PanicError is the first-failure error recorded when a task panics.
// The worker that ran the task survives; the panic value and stack are
// preserved here for diagnosis.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task panicked: %v", e.Value)
}

// An Observer receives the pool's task lifecycle: the tracer's worker
// timelines and fault injection attach this way (*trace.Tracer
// satisfies it structurally, so sched does not import trace). A pool's
// observers are fixed when it is built. Calls come from every worker
// concurrently and sit on the task's critical path, so they must be
// safe for concurrent use and cheap.
//
// For each executed task the pool calls TaskStart on every observer in
// list order, inside the task's panic isolation: a panic there fails
// the pool with a *PanicError exactly as a panic in the task body does.
// TaskDone then goes, in reverse list order, to each observer whose
// TaskStart returned, so spans opened by earlier observers enclose
// those of later ones. A panic reaches observers only as that balanced
// TaskDone; its value is the pool's Err. A task drained after
// cancellation calls no observer.
type Observer interface {
	// TaskStart is called on the executing worker before the task
	// runs. wait is the time from submission to start; depth is the
	// queue length left after the task was dequeued.
	TaskStart(worker int, tag string, wait time.Duration, depth int)
	// TaskDone is called on the executing worker after the task
	// returns or panics.
	TaskDone(worker int, tag string)
}

// A Pool is a fixed set of worker goroutines draining a dynamic FIFO
// task queue. Create one with NewPool and release it with Close.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []queued
	closed   bool
	maxQueue int // high-water mark of len(queue), under mu

	// Fixed at construction, so workers read them without mu.
	obs []Observer
	sim *simState // non-nil in simulation mode (see sim.go); fields under mu

	outstanding atomic.Int64 // queued + running tasks
	idleMu      sync.Mutex
	idleCond    *sync.Cond

	workers  int
	executed atomic.Int64 // total tasks run to completion (diagnostics)
	panics   atomic.Int64 // panics recovered from tasks (incl. ParallelForTagged bodies)

	cancelCh   chan struct{} // closed on first Cancel/failure
	cancelOnce sync.Once
	failMu     sync.Mutex
	failErr    error // first failure; nil while healthy
}

// queued is one queue entry: the task, its tag (the task kind its
// observers see), its submission time (zero when the pool has no
// observers), and its simulated ready time (zero outside simulation
// mode).
type queued struct {
	f      func()
	tag    string
	enq    time.Time
	vready time.Duration
}

// NewPool starts a pool with the given number of workers (≥ 1) and
// observers.
func NewPool(workers int, obs ...Observer) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("sched: invalid worker count %d", workers))
	}
	return start(workers, nil, obs)
}

// start builds the pool, fixing its observers and simulation state
// before any worker runs.
func start(workers int, sim *simState, obs []Observer) *Pool {
	p := &Pool{workers: workers, obs: slices.Clone(obs), sim: sim, cancelCh: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.idleCond = sync.NewCond(&p.idleMu)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Executed returns the number of tasks the pool has run to completion
// (panicked and drained-after-cancel tasks are not counted).
func (p *Pool) Executed() int64 { return p.executed.Load() }

// PoolStats is a point-in-time snapshot of the pool's execution
// counters.
type PoolStats struct {
	Workers       int   // fixed worker count
	Executed      int64 // tasks run to completion
	Panics        int64 // task panics recovered into pool failures
	MaxQueueDepth int   // high-water mark of the queue length
}

// Stats returns a snapshot of the pool's execution counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	maxQ := p.maxQueue
	p.mu.Unlock()
	return PoolStats{
		Workers:       p.workers,
		Executed:      p.executed.Load(),
		Panics:        p.panics.Load(),
		MaxQueueDepth: maxQ,
	}
}

// Cancel records err as the pool's failure (first failure wins; nil
// means ErrPoolCanceled) and cancels the pool: queued tasks are drained
// without executing, and Wait returns once running tasks finish. The
// pool stays structurally usable (Close still works); it only refuses
// to start new work.
func (p *Pool) Cancel(err error) {
	if err == nil {
		err = ErrPoolCanceled
	}
	p.fail(err)
}

// fail records the first failure and cancels the pool. The error is
// published before the cancellation channel closes, so anything that
// sees Canceled() also sees a non-nil Err.
func (p *Pool) fail(err error) {
	p.failMu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.failMu.Unlock()
	p.cancelOnce.Do(func() { close(p.cancelCh) })
}

// Err returns the pool's first failure: a *PanicError from a panicked
// task or the error given to Cancel. It is nil while the pool is
// healthy.
func (p *Pool) Err() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// Canceled reports whether the pool has been canceled or has failed.
func (p *Pool) Canceled() bool {
	select {
	case <-p.cancelCh:
		return true
	default:
		return false
	}
}

func (p *Pool) worker(id int) {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed && len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		depth := len(p.queue)
		p.mu.Unlock()

		switch {
		case p.Canceled():
			// Drain without executing: the task's completion obligations
			// (gates, dependents) are abandoned, but the outstanding
			// count still reaches zero so Wait returns.
		case p.sim != nil:
			proc, start := p.simBegin(task.vready)
			p.runTask(id, task, depth)
			p.simEnd(proc, start)
		default:
			p.runTask(id, task, depth)
		}
		if p.outstanding.Add(-1) == 0 {
			p.idleMu.Lock()
			p.idleCond.Broadcast()
			p.idleMu.Unlock()
		}
	}
}

// runTask executes one task with panic isolation, calling the
// observers as the Observer contract describes: a panic (from the task
// or an observer's TaskStart) becomes the pool's first-failure error
// and cancels the pool; the worker goroutine survives.
func (p *Pool) runTask(id int, task queued, depth int) {
	started := 0 // observers whose TaskStart returned
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			p.fail(&PanicError{Value: r, Stack: debug.Stack()})
		}
		for i := started - 1; i >= 0; i-- {
			p.obs[i].TaskDone(id, task.tag)
		}
	}()
	if len(p.obs) > 0 {
		wait := time.Since(task.enq)
		for _, o := range p.obs {
			o.TaskStart(id, task.tag, wait, depth)
			started++
		}
	}
	task.f()
	p.executed.Add(1)
}

// SubmitTagged enqueues a ready-to-run task. It never blocks and may be
// called from inside other tasks. On a canceled pool the task is
// accepted but drained without executing. The tag names the task kind
// (e.g. the paper's Fig. 3.2 kinds) to the pool's observers; it should
// be a small constant string.
func (p *Pool) SubmitTagged(tag string, task func()) {
	var enq time.Time
	if len(p.obs) > 0 {
		enq = time.Now()
	}
	p.outstanding.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit on closed pool")
	}
	p.queue = append(p.queue, queued{f: task, tag: tag, enq: enq, vready: p.simReadyTime()})
	if len(p.queue) > p.maxQueue {
		p.maxQueue = len(p.queue)
	}
	p.cond.Signal()
	p.mu.Unlock()
}

// Wait blocks until every submitted task (including tasks submitted by
// running tasks) has completed or been drained after cancellation. It
// must not be called from inside a task. After Wait, check Err: a
// non-nil Err means the run was cut short and dependent results are
// incomplete.
func (p *Pool) Wait() {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	for p.outstanding.Load() != 0 {
		p.idleCond.Wait()
	}
}

// Close shuts the pool down after the queue drains. The pool must not be
// used afterwards.
func (p *Pool) Close() {
	p.Wait()
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ParallelForTagged runs f(i) for i in [0, n) on the pool, one
// iteration per task (the paper's finest granularity) tagged tag, and
// blocks until all iterations finish or the pool is canceled, in which
// case it returns the pool's error without waiting for the drained
// iterations (the caller must not read results produced by f after a
// non-nil return: a straggler iteration may still be running). It must
// not be called from inside a task.
func (p *Pool) ParallelForTagged(tag string, n int, f func(i int)) error {
	if n <= 0 {
		return nil
	}
	var remaining atomic.Int64
	remaining.Store(int64(n))
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		p.SubmitTagged(tag, func() {
			// Record a panic before the decrement becomes visible, so a
			// ParallelForTagged woken by the final decrement always observes
			// the failure in Err.
			defer func() {
				if r := recover(); r != nil {
					p.panics.Add(1)
					p.fail(&PanicError{Value: r, Stack: debug.Stack()})
				}
				if remaining.Add(-1) == 0 {
					close(done)
				}
			}()
			f(i)
		})
	}
	select {
	case <-done:
		// All iterations ran; the pool may still have failed concurrently
		// (e.g. another phase's task), but this loop's results are
		// complete. Report the failure anyway: callers must stop.
		return p.Err()
	case <-p.cancelCh:
		return p.Err()
	}
}

// A Gate fires a task once a fixed number of prerequisite completions
// have been signalled. It is the scheduler-side analogue of the paper's
// per-node status data structures: "completion of a certain task at a
// node would cause an update of that node's status [which] enables the
// execution of another task" (§3.2).
type Gate struct {
	remaining atomic.Int32
	pool      *Pool
	tag       string
	task      func()
}

// NewGateTagged creates a gate that submits task, tagged tag, to the
// pool after need completions. If need is 0 the task is submitted
// immediately.
func NewGateTagged(pool *Pool, need int, tag string, task func()) *Gate {
	g := &Gate{pool: pool, tag: tag, task: task}
	g.remaining.Store(int32(need))
	if need == 0 {
		pool.SubmitTagged(tag, task)
	}
	return g
}

// Done signals one completed prerequisite; the last one enqueues the
// gated task.
func (g *Gate) Done() {
	if n := g.remaining.Add(-1); n == 0 {
		g.pool.SubmitTagged(g.tag, g.task)
	} else if n < 0 {
		panic("sched: Gate.Done called too many times")
	}
}
