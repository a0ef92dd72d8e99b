package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestUnitsContract pins the repo-wide timestamp/duration unit
// contract across the observability sinks:
//
//   - in-memory spans and counters: time.Duration offsets from the
//     tracer epoch (nanoseconds);
//   - Chrome trace-event export: MICROSECOND floats in ts/dur/wait_us,
//     as the Trace Event Format requires (ns ÷ nsPerMicro);
//   - /debug/requests and /debug/traces metadata: float seconds,
//     named so (queueWaitSeconds, phaseSeconds, wallSeconds, …).
//
// Each sink uses a different unit, which is fine exactly because every
// field name or format spec says which; this test fails if the Chrome
// conversion factor drifts.
func TestUnitsContract(t *testing.T) {
	tr := New()
	tr.SetRequestID("units")
	l := tr.Lane(ControlLane, "control")
	l.spans = []Span{{
		Name:   "task",
		Cat:    CatTask,
		Start:  1500 * time.Microsecond,
		Dur:    2 * time.Millisecond,
		Parent: -1,
		Wait:   250 * time.Microsecond,
	}}
	tr.counters = []Counter{{Name: "queue", At: 3 * time.Millisecond, Value: 7}}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawCounter bool
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Name == "task":
			sawSpan = true
			// 1500µs start, 2ms duration, 250µs wait — in microseconds.
			if ev.Ts != 1500 {
				t.Errorf("ts = %v µs, want 1500 (started at 1500µs)", ev.Ts)
			}
			if ev.Dur != 2000 {
				t.Errorf("dur = %v µs, want 2000 (2ms span)", ev.Dur)
			}
			if w := ev.Args["wait_us"]; w != 250.0 {
				t.Errorf("wait_us = %v, want 250 (250µs wait)", w)
			}
		case ev.Ph == "C" && ev.Name == "queue":
			sawCounter = true
			if ev.Ts != 3000 {
				t.Errorf("counter ts = %v µs, want 3000 (3ms sample)", ev.Ts)
			}
		}
	}
	if !sawSpan || !sawCounter {
		t.Fatalf("export missing span (%v) or counter (%v) event", sawSpan, sawCounter)
	}
	if nsPerMicro != 1e3 {
		t.Errorf("nsPerMicro = %v, want 1000 ns per µs", nsPerMicro)
	}
}
