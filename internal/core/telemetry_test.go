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

// logRecords parses a JSON-lines slog buffer.
func logRecords(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestTelemetryEndToEnd: on a 2-worker solve the tracer is the one
// recorder of the pool's tasks and the pipeline's phases. Every task
// the pool ran is a span on a worker lane, the phases are spans on the
// control lane, and the solve log holds the run's start and finish
// under the request's ID.
func TestTelemetryEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
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
	if got, want := phaseSpans(tr), []string{"remainder", "solve"}; !slices.Equal(got, want) {
		t.Errorf("phase spans %q, want %q", got, want)
	}
	if tr.RequestID() != "e2e-1" {
		t.Errorf("tracer request ID %q, want e2e-1", tr.RequestID())
	}

	recs := logRecords(t, &buf)
	var got []string
	for _, rec := range recs {
		got = append(got, rec["msg"].(string))
		if rec["requestId"] != "e2e-1" {
			t.Errorf("log record %v lacks requestId e2e-1", rec)
		}
	}
	if want := []string{"solve start", "solve finish"}; !slices.Equal(got, want) {
		t.Errorf("log records %q, want %q", got, want)
	}
}

// phaseSpans lists the names of the tracer's CatPhase spans on the
// control lane, in the order they began.
func phaseSpans(tr *trace.Tracer) []string {
	var names []string
	for _, l := range tr.Lanes() {
		if l.ID != trace.ControlLane {
			continue
		}
		for _, s := range l.Spans() {
			if s.Cat == trace.CatPhase {
				names = append(names, s.Name)
			}
		}
	}
	return names
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
	for _, rec := range logRecords(t, &buf) {
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

// TestTelemetryBudgetOutcome: the budget trip is one WARN record in
// the solve log, and the run's outcome in the registry.
func TestTelemetryBudgetOutcome(t *testing.T) {
	var buf bytes.Buffer
	tel := telemetry.New(telemetry.Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	p := poly.FromRoots(mp.NewInt(1), mp.NewInt(-2), mp.NewInt(5), mp.NewInt(-7))
	_, err := FindRoots(p, Options{Mu: 8, Workers: 1, MaxBitOps: 10, Telemetry: tel})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	if tot := tel.Registry().Totals(); tot.Solves[telemetry.OutcomeBudget] != 1 {
		t.Fatalf("registry solves: %+v", tot.Solves)
	}
	var trips []map[string]any
	for _, rec := range logRecords(t, &buf) {
		if rec["msg"] == "budget exhausted" {
			trips = append(trips, rec)
		}
	}
	if len(trips) != 1 || trips[0]["level"] != "WARN" {
		t.Fatalf("budget exhausted records %v, want one at WARN", trips)
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
}

// TestTelemetryRepeatedRootsOneRun solves an input with three Yun
// factors: the call is one run with outcome ok, although its remainder
// sequence first stops on the repeated roots and each factor is then
// solved on its own.
func TestTelemetryRepeatedRootsOneRun(t *testing.T) {
	var logBuf bytes.Buffer
	tel := telemetry.New(telemetry.Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
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
	msgs := map[any]int{}
	for _, rec := range logRecords(t, &logBuf) {
		msgs[rec["msg"]]++
	}
	if msgs["solve start"] != 2 || msgs["solve finish"] != 2 || len(msgs) != 2 {
		t.Errorf("log records %v, want one solve start and one solve finish per call", msgs)
	}
}
