package telemetry

import (
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// The disabled-telemetry contract: a nil hub or run costs zero
// allocations on every code path the solver instruments,
// mirroring the nil-tracer guarantee in internal/trace. These guards
// fail the suite (not just a benchmark) if a no-op path starts
// allocating.

func TestDisabledTelemetryZeroAlloc(t *testing.T) {
	var tel *Telemetry
	var rep metrics.Report
	if n := testing.AllocsPerRun(100, func() {
		run := tel.Start(RunInfo{Kind: "core", Degree: 50, Mu: 32, Workers: 8})
		run.BudgetExhausted(1)
		run.SchedStats(sched.PoolStats{})
		run.Finish(OutcomeOK, nil, 0, 0, rep)
	}); n != 0 {
		t.Fatalf("disabled telemetry run path allocates %.1f/op", n)
	}
}

func BenchmarkDisabledRunLifecycle(b *testing.B) {
	var tel *Telemetry
	var rep metrics.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run := tel.Start(RunInfo{Kind: "core", Degree: 50, Mu: 32, Workers: 8})
		run.Finish(OutcomeOK, nil, 0, 0, rep)
	}
}
