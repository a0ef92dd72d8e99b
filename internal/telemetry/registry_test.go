package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// sampleReport builds a metrics report with every family populated so
// the exposition exercises all its branches.
func sampleReport() metrics.Report {
	var c metrics.Counters
	c.AddMul(metrics.PhaseRemainder, 100, 200)
	c.AddMul(metrics.PhaseRemainder, 5000, 5000)
	c.AddDiv(metrics.PhaseTree, 300, 100)
	c.AddAdd(metrics.PhaseSort)
	c.AddEval(metrics.PhaseBisection)
	var none metrics.Tally
	sieve := metrics.Ctx{C: &c, Phase: metrics.PhaseSieve}
	sieve.FlushSign(&none, metrics.KernelScreen)
	sieve.FlushSign(&none, metrics.KernelScreen)
	sieve.In(metrics.PhaseNewton).FlushSign(&none, metrics.KernelExact)
	return c.Snapshot()
}

func populatedRegistry(t *testing.T) *Telemetry {
	t.Helper()
	tel := New(Config{})
	for i, o := range Outcomes {
		run := tel.Start(RunInfo{Kind: "core", Degree: 10 + i, Mu: 16, Workers: 2})
		run.SchedStats(sched.PoolStats{Executed: 7, Panics: 1})
		run.Finish(o, nil, i, int64(1000*(i+1)), sampleReport())
	}
	run := tel.Start(RunInfo{Kind: "core", Degree: 40, Mu: 32, Workers: 4})
	run.Finish(OutcomeOK, nil, 4, 500, sampleReport())
	return tel
}

// TestWritePrometheusValidates renders the full registry and runs the
// strict exposition parser over it — the satellite guarantee that
// whatever /metrics serves is well-formed 0.0.4 text.
func TestWritePrometheusValidates(t *testing.T) {
	tel := populatedRegistry(t)
	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`realroots_solves_total{outcome="ok"} 2`,
		`realroots_solves_total{outcome="panic"} 1`,
		"realroots_runs_active 0",
		"realroots_roots_total 19",
		`realroots_phase_ops_total{phase="remainder",op="mul"} `,
		`realroots_phase_bits_total{phase="tree",op="div",cost="model"} `,
		`realroots_operand_bits_ops_total{phase="remainder",bits="[4096,8192)"} `,
		`realroots_sign_evals_total{phase="sieve",kernel="screen"} 14`,
		`realroots_sign_evals_total{phase="newton",kernel="exact"} 7`,
		"realroots_sched_tasks_total 42",
		"realroots_sched_panics_total 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Each rootd trace is summarized once, into the rootd_* gauges; the
	// registry keeps no trace summary of its own, and no flight ring.
	for _, gone := range []string{"realroots_trace", "realroots_flight"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still carries %s* families", gone)
		}
	}
	if strings.Contains(out, `cost="actual"`) {
		t.Error(`exposition carries cost="actual" samples; bit costs are the paper's model only`)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

func TestWritePrometheusEmptyRegistryValidates(t *testing.T) {
	tel := New(Config{})
	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("empty-registry exposition invalid: %v\n%s", err, buf.String())
	}
	// Outcome labels are pre-declared even before any solve.
	if !strings.Contains(buf.String(), `realroots_solves_total{outcome="canceled"} 0`) {
		t.Fatal("outcome label set not pre-declared")
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	if err := (*Registry)(nil).WritePrometheus(&bytes.Buffer{}); err == nil {
		t.Fatal("nil registry rendered")
	}
}

func TestRegistryTotals(t *testing.T) {
	tel := populatedRegistry(t)
	tot := tel.Registry().Totals()
	if tot.Solves[OutcomeOK] != 2 || tot.Solves[OutcomeBudget] != 1 {
		t.Fatalf("solves: %+v", tot.Solves)
	}
	if tot.SchedTasks != 42 || tot.Panics != 6 {
		t.Fatalf("sched totals: %+v", tot)
	}
	nilTot := (*Registry)(nil).Totals()
	if nilTot.Solves == nil || len(nilTot.Solves) != 0 {
		t.Fatalf("nil registry totals: %+v", nilTot)
	}
}

func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Fatalf("escapeLabel = %q, want %q", got, want)
	}
	// And the validator accepts an exposition using the escaped value.
	expo := "# HELP m h\n# TYPE m counter\nm{l=\"" + got + "\"} 1\n"
	if err := ValidateExposition([]byte(expo)); err != nil {
		t.Fatalf("escaped label rejected: %v", err)
	}
}

func TestBucketLabel(t *testing.T) {
	if got := bucketLabel(0); got != "[0,1)" {
		t.Fatalf("bucketLabel(0) = %q", got)
	}
	if got := bucketLabel(3); got != "[4,8)" {
		t.Fatalf("bucketLabel(3) = %q", got)
	}
	top := bucketLabel(metrics.BitLenBuckets - 1)
	if !strings.HasSuffix(top, ",inf)") {
		t.Fatalf("top bucket %q not unbounded", top)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"no trailing newline", "# HELP a b\n# TYPE a counter\na 1"},
		{"blank line", "# HELP a b\n\n# TYPE a counter\na 1\n"},
		{"sample before type", "a 1\n"},
		{"bad type", "# TYPE a widget\na 1\n"},
		{"dup type", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"dup help", "# HELP a b\n# HELP a c\n"},
		{"dup sample", "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n"},
		{"negative counter", "# TYPE a counter\na -1\n"},
		{"nan counter", "# TYPE a counter\na NaN\n"},
		{"bad name", "# TYPE 9a counter\n"},
		{"bad label name", "# TYPE a counter\na{9x=\"1\"} 1\n"},
		{"unquoted label", "# TYPE a counter\na{x=1} 1\n"},
		{"bad escape", "# TYPE a counter\na{x=\"\\t\"} 1\n"},
		{"unterminated labels", "# TYPE a counter\na{x=\"1\" 1\n"},
		{"missing value", "# TYPE a counter\na\n"},
		{"junk value", "# TYPE a counter\na one\n"},
		{"bad timestamp", "# TYPE a counter\na 1 soon\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateExposition([]byte(tc.data)); err == nil {
				t.Fatalf("accepted %q", tc.data)
			}
		})
	}
	ok := "# HELP a b\n# TYPE a gauge\n# arbitrary comment\na{x=\"1\"} -2.5\na 1 1700000000\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
}
