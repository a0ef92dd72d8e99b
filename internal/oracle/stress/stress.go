// Package stress is the scheduler-determinism harness: it replays one
// root-finding task graph across a sweep of worker counts while
// background "chaos" goroutines randomize the Go scheduler's
// interleavings, then verifies the promise DESIGN.md §5 makes — the
// root output is bit-for-bit identical for every worker count, and so
// are the per-phase multiplication counts (the algorithm performs
// exactly the same arithmetic regardless of how its tasks are
// scheduled; only the order varies).
//
// Run it under the race detector to turn every latent scheduler data
// race into a hard failure:
//
//	go test -race ./internal/oracle/...
package stress

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"realroots/internal/core"
	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/poly"
)

// DefaultWorkers is the paper's processor sweep.
var DefaultWorkers = []int{1, 2, 4, 8, 16}

// A Run records one worker count's output and arithmetic counts.
type Run struct {
	Workers int
	Roots   []dyadic.Dyadic
	Mults   []int // multiplicity of each root
	// Muls is the per-phase multiplication count; Phases indexes it.
	Muls [metrics.NumPhases]int64
	// Tasks is the number of scheduler tasks executed (0 when Workers
	// is 1: the sequential path bypasses the pool).
	Tasks int64
}

// chaos perturbs goroutine scheduling while fn runs: njitter
// goroutines spin calling runtime.Gosched and occasionally sleeping for
// a seed-derived few microseconds, maximizing preemption points
// between the pool's workers. The jitter is the stress harness's
// substitute for a model checker: it cannot prove determinism, but
// under -race it reliably flushes out ordering assumptions.
func chaos(seed int64, njitter int, fn func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < njitter; i++ {
		wg.Add(1)
		r := rand.New(rand.NewSource(seed + int64(i)))
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r.Intn(16) == 0 {
					time.Sleep(time.Duration(r.Intn(50)) * time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	fn()
	close(stop)
	wg.Wait()
}

// Sweep solves p at precision mu once per worker count under chaos
// injection and returns the per-count records, in the given order.
func Sweep(p *poly.Poly, mu uint, workers []int, seed int64) ([]Run, error) {
	runs := make([]Run, 0, len(workers))
	for i, w := range workers {
		var c metrics.Counters
		var res *core.Result
		var err error
		chaos(seed+int64(100*i), 3, func() {
			res, err = core.FindRoots(p, core.Options{Mu: mu, Workers: w, Counters: &c})
		})
		if err != nil {
			return nil, fmt.Errorf("stress: workers=%d: %w", w, err)
		}
		run := Run{Workers: w, Roots: res.Roots, Mults: res.Mults, Tasks: res.Stats.Tasks}
		rep := c.Snapshot()
		for _, ph := range metrics.AllPhases() {
			run.Muls[ph] = rep.Phases[ph].Muls
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// Verify checks that every run in the sweep produced bit-identical
// roots and identical per-phase multiplication counts.
func Verify(runs []Run) error {
	if len(runs) < 2 {
		return fmt.Errorf("stress: need at least 2 runs to compare, have %d", len(runs))
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if len(r.Roots) != len(base.Roots) {
			return fmt.Errorf("stress: P=%d found %d roots, P=%d found %d",
				base.Workers, len(base.Roots), r.Workers, len(r.Roots))
		}
		for i := range base.Roots {
			if !r.Roots[i].Equal(base.Roots[i]) {
				return fmt.Errorf("stress: root %d differs: P=%d → %v, P=%d → %v",
					i, base.Workers, base.Roots[i], r.Workers, r.Roots[i])
			}
			if r.Mults[i] != base.Mults[i] {
				return fmt.Errorf("stress: multiplicity of root %d differs: P=%d → %d, P=%d → %d",
					i, base.Workers, base.Mults[i], r.Workers, r.Mults[i])
			}
		}
		for _, ph := range metrics.AllPhases() {
			if r.Muls[ph] != base.Muls[ph] {
				return fmt.Errorf("stress: %v multiplication count differs: P=%d → %d, P=%d → %d",
					ph, base.Workers, base.Muls[ph], r.Workers, r.Muls[ph])
			}
		}
	}
	return nil
}

// SweepAndVerify is the harness entry point: one task graph, the full
// worker sweep, chaos injection, and the determinism assertions.
func SweepAndVerify(p *poly.Poly, mu uint, workers []int, seed int64) error {
	runs, err := Sweep(p, mu, workers, seed)
	if err != nil {
		return err
	}
	return Verify(runs)
}
