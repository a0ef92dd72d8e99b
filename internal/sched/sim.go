package sched

import (
	"time"
)

// Simulation mode. The paper measured speedups on a 20-processor
// Sequent Symmetry; when such hardware is unavailable (this repository
// is routinely exercised on single-core containers), a simulated pool
// executes the *real* task graph on one OS worker while list-scheduling
// the measured task durations onto P virtual processors:
//
//   - each task is assigned, in execution order (a valid topological
//     order of the dependency graph, because tasks are only submitted
//     once their dependencies complete), to the virtual processor with
//     the earliest available time;
//   - a task's virtual start is max(processor available, task ready),
//     where the ready time is the virtual moment its submitting task
//     reached the SubmitTagged call;
//   - the simulated makespan is the latest virtual completion.
//
// This is Graham-style greedy list scheduling driven by measured
// durations; it reproduces the paper's speedup *shape* (near-linear for
// small P, tailing off when the task granularity cannot fill 16
// processors) without parallel hardware. On a real multicore host the
// same experiments can be run with wall-clock speedups instead.
type simState struct {
	procs    []time.Duration // virtual availability per processor
	makespan time.Duration
	work     time.Duration // Σ task durations (= 1-processor makespan)

	// Current-task context (there is exactly one real worker).
	inTask   bool
	curStart time.Duration
	curReal  time.Time

	// now is the clock task durations are measured on: time.Now,
	// except in tests that drive a clock of their own.
	now func() time.Time
}

// NewSimulatedPool returns a pool that executes tasks on one real
// worker while simulating the given number of virtual processors.
func NewSimulatedPool(virtualWorkers int, obs ...Observer) *Pool {
	if virtualWorkers < 1 {
		panic("sched: invalid virtual worker count")
	}
	return start(1, &simState{procs: make([]time.Duration, virtualWorkers), now: time.Now}, obs)
}

// SimStats returns the simulated makespan and the total measured task
// work (the one-processor makespan). It is only meaningful after Wait.
func (p *Pool) SimStats() (makespan, work time.Duration) {
	if p.sim == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sim.makespan, p.sim.work
}

// simReadyTime computes the virtual ready time for a task being
// submitted right now: the submitting task's current virtual moment, or
// the current makespan for submissions from outside the pool (barrier
// semantics, matching how the algorithm's stages hand off). The caller
// must hold p.mu.
func (p *Pool) simReadyTime() time.Duration {
	if p.sim == nil {
		return 0
	}
	if p.sim.inTask {
		return p.sim.curStart + p.sim.now().Sub(p.sim.curReal)
	}
	return p.sim.makespan
}

// simBegin assigns the task to a virtual processor and records the
// running-task context; it returns the processor index and start time.
func (p *Pool) simBegin(ready time.Duration) (proc int, start time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sim
	proc = 0
	for i, avail := range s.procs {
		if avail < s.procs[proc] {
			proc = i
		}
	}
	start = s.procs[proc]
	if ready > start {
		start = ready
	}
	s.inTask = true
	s.curStart = start
	s.curReal = s.now()
	return proc, start
}

// simEnd closes the running-task context, measuring the task's duration
// from the same origin simBegin recorded (so that ready times handed to
// submitted tasks can never exceed the submitter's completion).
func (p *Pool) simEnd(proc int, start time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.sim
	d := s.now().Sub(s.curReal)
	end := start + d
	s.procs[proc] = end
	if end > s.makespan {
		s.makespan = end
	}
	s.work += d
	s.inTask = false
}
