package telemetry

import (
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// The disabled-telemetry contract: a nil hub, run, or flight recorder
// costs zero allocations on every code path the solver instruments,
// mirroring the nil-tracer guarantee in internal/trace. These guards
// fail the suite (not just a benchmark) if a no-op path starts
// allocating.

func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	var tel *Telemetry
	var rep metrics.Report
	if n := testing.AllocsPerRun(100, func() {
		run := tel.Start(RunInfo{Kind: "core", Degree: 50, Mu: 32, Workers: 8})
		run.PhaseBegin("remainder")
		run.PhaseEnd("remainder")
		run.BudgetExhausted(1)
		run.SchedStats(sched.PoolStats{})
		run.Finish(OutcomeOK, nil, 0, 0, rep)
	}); n != 0 {
		t.Fatalf("disabled telemetry run path allocates %.1f/op", n)
	}
}

func TestNilFlightZeroAlloc(t *testing.T) {
	var f *Flight
	if n := testing.AllocsPerRun(100, func() {
		f.Begin(1, 0, "task", "cat")
		f.Event(1, 0, "event", 2)
		f.End(1, 0, "task")
	}); n != 0 {
		t.Fatalf("nil flight recorder allocates %.1f/op", n)
	}
}

func BenchmarkDisabledRunLifecycle(b *testing.B) {
	var tel *Telemetry
	var rep metrics.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := tel.Start(RunInfo{Kind: "core", Degree: 50, Mu: 32, Workers: 8})
		run.PhaseBegin("remainder")
		run.PhaseEnd("remainder")
		run.Finish(OutcomeOK, nil, 0, 0, rep)
	}
}

func BenchmarkNilFlightEvent(b *testing.B) {
	var f *Flight
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Event(1, 0, "e", int64(i))
	}
}

// BenchmarkEnabledFlightEvent is the reference cost of the always-on
// path: one record allocation plus two atomics.
func BenchmarkEnabledFlightEvent(b *testing.B) {
	f := NewFlight(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Event(1, 0, "e", int64(i))
	}
}
