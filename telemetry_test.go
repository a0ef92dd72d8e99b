package realroots

import (
	"bytes"
	"log/slog"
	"math/big"
	"strings"
	"sync"
	"testing"

	"realroots/internal/telemetry"
)

// TestTelemetryPublicAPI exercises the documented production setup:
// one process-wide hub, a structured log, and both solver entry points
// reporting into it.
func TestTelemetryPublicAPI(t *testing.T) {
	var logBuf bytes.Buffer
	tel := NewTelemetry(TelemetryConfig{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	opts := &Options{Precision: 12, Workers: 2, Telemetry: tel}

	// Parallel pipeline ("core" runs).
	if _, err := FindRoots([]*big.Int{big.NewInt(30), big.NewInt(-23), big.NewInt(-8), big.NewInt(1)}, opts); err != nil {
		t.Fatalf("FindRoots: %v", err)
	}
	// Sturm baseline ("sturm" runs): x²-2.
	if _, err := FindRealRoots([]*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}, opts); err != nil {
		t.Fatalf("FindRealRoots: %v", err)
	}

	logs := logBuf.String()
	for _, want := range []string{`"msg":"solve start"`, `"msg":"solve finish"`, `"kind":"core"`, `"kind":"sturm"`, `"outcome":"ok"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %s:\n%s", want, logs)
		}
	}

	var expo bytes.Buffer
	if err := tel.Registry().WritePrometheus(&expo); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := telemetry.ValidateExposition(expo.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if !strings.Contains(expo.String(), `realroots_solves_total{outcome="ok"} 2`) {
		t.Fatalf("exposition missing solve counts:\n%s", expo.String())
	}

	for _, msg := range []string{"solve start", "solve finish"} {
		if n := strings.Count(logs, `"msg":"`+msg+`"`); n != 2 {
			t.Errorf("structured log has %d %q records, want one per run", n, msg)
		}
	}
}

// TestTelemetryConcurrentSolves shares one hub across concurrent runs;
// under -race this doubles as the hub's thread-safety proof at the
// public API level.
func TestTelemetryConcurrentSolves(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	var wg sync.WaitGroup
	const solvers = 4
	errs := make([]error, solvers)
	for i := 0; i < solvers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := int64(i)
			coeffs := []*big.Int{big.NewInt(30 + g), big.NewInt(-23), big.NewInt(-8), big.NewInt(1)}
			_, errs[i] = FindRoots(coeffs, &Options{Precision: 10, Workers: 2, Telemetry: tel})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solver %d: %v", i, err)
		}
	}
	if got := tel.Registry().Totals().Solves[telemetry.OutcomeOK]; got != solvers {
		t.Fatalf("registry counted %d ok solves, want %d", got, solvers)
	}
}

// TestRequestIDThreeSinks stamps Options.RequestID on a solve and
// recovers it from the library's sinks — structured log and Chrome
// trace — for both the parallel pipeline and the Sturm baseline. The
// third sink, rootd's /debug/requests row, is checked by the server's
// TestRequestIDPropagation.
func TestRequestIDThreeSinks(t *testing.T) {
	for _, tc := range []struct {
		kind   string
		coeffs []*big.Int
	}{
		{"core", []*big.Int{big.NewInt(30), big.NewInt(-23), big.NewInt(-8), big.NewInt(1)}},
		{"sturm", []*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			id := "root-req-" + tc.kind
			var logBuf bytes.Buffer
			tel := NewTelemetry(TelemetryConfig{
				Logger: slog.New(slog.NewJSONHandler(&logBuf, nil)),
			})
			tr := NewTracer()
			opts := &Options{Precision: 12, Workers: 2, Telemetry: tel, Tracer: tr, RequestID: id}
			var err error
			if tc.kind == "core" {
				_, err = FindRoots(tc.coeffs, opts)
			} else {
				_, err = FindRealRoots(tc.coeffs, opts)
			}
			if err != nil {
				t.Fatalf("solve: %v", err)
			}

			if !strings.Contains(logBuf.String(), `"requestId":"`+id+`"`) {
				t.Errorf("structured log does not carry requestId %q:\n%s", id, logBuf.String())
			}

			var chrome bytes.Buffer
			if err := tr.WriteChrome(&chrome); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			if !strings.Contains(chrome.String(), `"requestId":"`+id+`"`) {
				t.Errorf("chrome trace args do not carry requestId %q", id)
			}
		})
	}
}

// TestTelemetryBudgetExhaustedPublic checks the budget trip is visible
// through the public hub.
func TestTelemetryBudgetExhaustedPublic(t *testing.T) {
	tel := NewTelemetry(TelemetryConfig{})
	coeffs := []*big.Int{big.NewInt(30), big.NewInt(-23), big.NewInt(-8), big.NewInt(1)}
	if _, err := FindRoots(coeffs, &Options{Precision: 12, MaxBitOps: 5, Telemetry: tel}); err == nil {
		t.Fatal("budget of 5 bit ops did not trip")
	}
	if got := tel.Registry().Totals().Solves[telemetry.OutcomeBudget]; got != 1 {
		t.Fatalf("budget outcome count = %d, want 1", got)
	}
}
