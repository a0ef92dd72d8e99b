package telemetry

import (
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/trace"
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
		run.SchedStats(SchedStats{})
		run.Utilization(trace.Summary{})
		run.TaskStart(0, "t", 0, 0)
		run.TaskDone(0, "t")
		run.TaskPanic(0, "t", nil)
		run.Finish(OutcomeOK, 0, 0, rep)
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
		run.Finish(OutcomeOK, 0, 0, rep)
	}
}

func BenchmarkDisabledTaskHooks(b *testing.B) {
	var run *Run
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run.TaskStart(0, "t", 0, 0)
		run.TaskDone(0, "t")
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

func BenchmarkEnabledTaskSpan(b *testing.B) {
	tel := New(Config{})
	run := tel.Start(RunInfo{Kind: "core", Degree: 50, Mu: 32, Workers: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run.TaskStart(0, "t", 0, 0)
		run.TaskDone(0, "t")
	}
}
