package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
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

// TestTelemetryEndToEnd: on a 2-worker solve the tracer is the
// scheduler's only recorder. Every task the pool ran is a span on the
// tracer, and the flight recorder holds the run's lifecycle alone:
// start, the request binding, one span per phase, and finish.
func TestTelemetryEndToEnd(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	tr := trace.New()
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5), mp.NewInt(-7))
	res, err := FindRoots(p, Options{Mu: 8, Workers: 2, Telemetry: tel, Tracer: tr, RequestID: "e2e-1"})
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
	if tot.Roots != 4 || tot.BitOps <= 0 || tot.SchedTasks <= 0 || tot.SchedTasks != res.Stats.Tasks {
		t.Fatalf("registry totals: %+v (run executed %d tasks)", tot, res.Stats.Tasks)
	}

	var taskSpans int64
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			if l.ID >= 0 && s.Cat == trace.CatTask {
				taskSpans++
			}
		}
	}
	if taskSpans != res.Stats.Tasks {
		t.Errorf("tracer holds %d task spans, want one per executed task (%d)", taskSpans, res.Stats.Tasks)
	}

	d := tel.Flight().Dump()
	if err := d.Validate(); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	var got []string
	for _, r := range d.Records {
		if r.Lane != telemetry.ControlLane {
			t.Errorf("worker-lane record in the flight recorder: %+v", r)
		}
		got = append(got, r.Kind.String()+" "+r.Name)
	}
	want := []string{
		"event start", "event request_id:e2e-1",
		"begin remainder", "end remainder",
		"begin solve", "end solve",
		"event finish",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flight records %q, want %q", got, want)
	}
}

// TestTelemetryTaskPanicFinishRecord: with no task observer on the
// hub, a task panic's value reaches the log through the run's finish
// record, at ERROR and under the request's ID.
func TestTelemetryTaskPanicFinishRecord(t *testing.T) {
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5), mp.NewInt(-7))
	_, err := FindRoots(p, Options{Mu: 8, Workers: 2, Telemetry: tel, RequestID: "panic-1",
		TaskHook: func(seq int64) {
			if seq == 3 {
				panic("injected fault 3")
			}
		}})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a task panic", err)
	}
	var fin map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["msg"] == "solve finish" {
			fin = rec
		}
	}
	if fin == nil {
		t.Fatalf("no solve finish record in\n%s", buf.String())
	}
	msg, _ := fin["error"].(string)
	if fin["level"] != "ERROR" || fin["outcome"] != "panic" || fin["requestId"] != "panic-1" ||
		!strings.Contains(msg, "injected fault 3") {
		t.Errorf("solve finish record %v, want ERROR with the panic value and request ID", fin)
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
	tel := telemetry.New(telemetry.Config{})
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
