package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// logLines parses a JSON-lines slog buffer.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func findLog(lines []map[string]any, msg string) map[string]any {
	for _, m := range lines {
		if m["msg"] == msg {
			return m
		}
	}
	return nil
}

func TestRunLifecycleLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tel := New(Config{Logger: logger})

	run := tel.Start(RunInfo{Kind: "core", Degree: 20, Mu: 16, Workers: 4})
	if run.ID != 1 {
		t.Fatalf("first run ID = %d", run.ID)
	}
	run.BudgetExhausted(12345)
	run.Finish(OutcomeOK, nil, 5, 999, metrics.Report{})

	lines := logLines(t, &buf)
	start := findLog(lines, "solve start")
	if start == nil || start["kind"] != "core" || start["degree"] != float64(20) {
		t.Fatalf("solve start line: %v", start)
	}
	if be := findLog(lines, "budget exhausted"); be == nil || be["level"] != "WARN" {
		t.Fatalf("budget exhausted line: %v", be)
	}
	fin := findLog(lines, "solve finish")
	if fin == nil || fin["outcome"] != "ok" || fin["level"] != "INFO" || fin["roots"] != float64(5) {
		t.Fatalf("solve finish line: %v", fin)
	}
	if _, ok := fin["error"]; ok {
		t.Errorf("successful run logged an error: %v", fin)
	}
	if len(lines) != 3 {
		t.Errorf("logged %d records, want start, budget exhausted and finish: %v", len(lines), lines)
	}

	// The run's totals landed in the registry.
	if tot := tel.Registry().Totals(); tot.Solves[OutcomeOK] != 1 || tot.Roots != 5 {
		t.Fatalf("registry totals: %+v", tot)
	}
}

func TestFinishLogLevels(t *testing.T) {
	cases := []struct {
		o    Outcome
		want string
	}{
		{OutcomeOK, "INFO"},
		{OutcomePanic, "ERROR"},
		{OutcomeBudget, "WARN"},
		{OutcomeCanceled, "WARN"},
		{OutcomeDeadline, "WARN"},
		{OutcomeError, "WARN"},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		tel := New(Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
		var err error
		if tc.o != OutcomeOK {
			err = errors.New("cause of " + string(tc.o))
		}
		tel.Start(RunInfo{Kind: "core", Degree: 4, Mu: 4, Workers: 1}).Finish(tc.o, err, 0, 0, metrics.Report{})
		fin := findLog(logLines(t, &buf), "solve finish")
		if fin == nil || fin["level"] != tc.want {
			t.Errorf("outcome %s logged at %v, want %s", tc.o, fin["level"], tc.want)
		}
		if err != nil && fin["error"] != err.Error() {
			t.Errorf("outcome %s logged error %v, want %q", tc.o, fin["error"], err)
		}
	}
}

func TestNoLoggerStillRecords(t *testing.T) {
	tel := New(Config{})
	run := tel.Start(RunInfo{Kind: "sturm", Degree: 8, Mu: 4, Workers: 1})
	run.Finish(OutcomeOK, nil, 2, 10, metrics.Report{})
	if tel.Registry().Totals().Solves[OutcomeOK] != 1 {
		t.Fatal("registry idle without a logger")
	}
}

func TestNilHubAndRun(t *testing.T) {
	var tel *Telemetry
	if tel.Registry() != nil || tel.Logger() != nil {
		t.Fatal("nil hub handed out non-nil sinks")
	}
	run := tel.Start(RunInfo{Kind: "core", Degree: 10, Mu: 16, Workers: 2})
	if run != nil {
		t.Fatal("nil hub returned a live run")
	}
	// Every method must be callable on the nil run.
	run.BudgetExhausted(1)
	run.SchedStats(sched.PoolStats{})
	run.Finish(OutcomeOK, nil, 0, 0, metrics.Report{})
}

func TestRunIDsAreUnique(t *testing.T) {
	tel := New(Config{})
	a := tel.Start(RunInfo{Kind: "core", Degree: 4, Mu: 4, Workers: 1})
	b := tel.Start(RunInfo{Kind: "sturm", Degree: 4, Mu: 4, Workers: 1})
	if a.ID == b.ID {
		t.Fatalf("duplicate run IDs: %d", a.ID)
	}
}
