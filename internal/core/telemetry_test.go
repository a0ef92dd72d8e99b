package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

func TestRunOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want telemetry.Outcome
	}{
		{nil, telemetry.OutcomeOK},
		{ErrBudgetExceeded, telemetry.OutcomeBudget},
		{fmt.Errorf("stage: %w", ErrBudgetExceeded), telemetry.OutcomeBudget},
		{ErrDeadline, telemetry.OutcomeDeadline},
		{ErrCanceled, telemetry.OutcomeCanceled},
		{&sched.PanicError{Value: "boom"}, telemetry.OutcomePanic},
		{fmt.Errorf("wrapped: %w", &sched.PanicError{Value: "boom"}), telemetry.OutcomePanic},
		{errors.New("misc"), telemetry.OutcomeError},
	}
	for _, tc := range cases {
		if got := RunOutcome(tc.err); got != tc.want {
			t.Errorf("RunOutcome(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

func TestTelemetryEndToEnd(t *testing.T) {
	tel := telemetry.New(telemetry.Config{FlightCapacity: 8192})
	tr := trace.New()
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5), mp.NewInt(-7))
	res, err := FindRoots(p, Options{Mu: 8, Workers: 2, Telemetry: tel, Tracer: tr})
	if err != nil {
		t.Fatalf("FindRoots: %v", err)
	}
	if len(res.Roots) != 4 {
		t.Fatalf("found %d roots, want 4", len(res.Roots))
	}

	tot := tel.Registry().Totals()
	if tot.Solves[telemetry.OutcomeOK] != 1 {
		t.Fatalf("registry solves: %+v", tot.Solves)
	}
	if tot.Roots != 4 || tot.BitOps <= 0 || tot.SchedTasks <= 0 {
		t.Fatalf("registry totals: %+v", tot)
	}

	d := tel.Flight().Dump()
	if err := d.Validate(); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	spans := map[string]int{}
	events := map[string]int{}
	for _, r := range d.Records {
		switch r.Kind {
		case telemetry.KindBegin:
			spans[r.Name]++
		case telemetry.KindEvent:
			events[r.Name]++
		}
	}
	for _, phase := range []string{"remainder", "solve"} {
		if spans[phase] != 1 {
			t.Errorf("phase span %q recorded %d times, want 1", phase, spans[phase])
		}
	}
	if events["start"] != 1 || events["finish"] != 1 {
		t.Errorf("lifecycle events: %v", events)
	}
	if tot.SchedTasks > 0 && len(spans) <= 2 {
		t.Errorf("no task spans reached the flight recorder: %v", spans)
	}
}

func TestTelemetryBudgetOutcome(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5), mp.NewInt(-7))
	_, err := FindRoots(p, Options{Mu: 8, Workers: 1, MaxBitOps: 10, Telemetry: tel})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	if tot := tel.Registry().Totals(); tot.Solves[telemetry.OutcomeBudget] != 1 {
		t.Fatalf("registry solves: %+v", tot.Solves)
	}
	found := false
	for _, r := range tel.Flight().Dump().Records {
		if r.Name == "budget_exhausted" {
			found = true
		}
	}
	if !found {
		t.Fatal("budget_exhausted event missing from flight recorder")
	}
}

// TestTelemetrySimulatedRun checks the virtual-time scheduler feeds
// telemetry the same way the real pool does.
func TestTelemetrySimulatedRun(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	p := poly.FromRoots(mp.NewInt(3), mp.NewInt(-4), mp.NewInt(6))
	if _, err := FindRoots(p, Options{Mu: 8, SimulateWorkers: 2, Telemetry: tel}); err != nil {
		t.Fatalf("FindRoots: %v", err)
	}
	tot := tel.Registry().Totals()
	if tot.Solves[telemetry.OutcomeOK] != 1 || tot.SchedTasks <= 0 {
		t.Fatalf("registry totals: %+v", tot)
	}
	if err := tel.Flight().Dump().Validate(); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
}

// TestTelemetryRepeatedRootsOneRun solves an input with three Yun
// factors: the call is one run with outcome ok, although its remainder
// sequence first stops on the repeated roots and each factor is then
// solved on its own.
func TestTelemetryRepeatedRootsOneRun(t *testing.T) {
	tel := telemetry.New(telemetry.Config{FlightCapacity: 8192})
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-4), mp.NewInt(-4), mp.NewInt(9), mp.NewInt(9), mp.NewInt(9), mp.NewInt(6))
	for _, workers := range []int{1, 2} {
		rm, err := FindRootsWithMultiplicity(p, Options{Mu: 8, Workers: workers, Telemetry: tel})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rm) != 4 {
			t.Fatalf("workers=%d: %d roots, want 4", workers, len(rm))
		}
	}
	tot := tel.Registry().Totals()
	var runs int64
	for _, n := range tot.Solves {
		runs += n
	}
	if runs != 2 || tot.Solves[telemetry.OutcomeOK] != 2 {
		t.Fatalf("realroots_solves_total = %v, want one ok run per call", tot.Solves)
	}
	if tot.Roots != 8 {
		t.Fatalf("roots total = %d, want 4 per call", tot.Roots)
	}
	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `realroots_solves_total{outcome="ok"} 2`) {
		t.Fatalf("exposition:\n%s", buf.String())
	}
	events := map[string]int{}
	for _, r := range tel.Flight().Dump().Records {
		if r.Kind == telemetry.KindEvent {
			events[r.Name]++
		}
	}
	if events["start"] != 2 || events["finish"] != 2 {
		t.Errorf("lifecycle events: %v, want one start and one finish per call", events)
	}
}
