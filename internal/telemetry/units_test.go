package telemetry

import (
	"testing"
	"time"
)

// TestRequestUnitsContract pins /debug/requests timings: the
// queueWaitSeconds/solveSeconds/totalSeconds fields are float seconds.
func TestRequestUnitsContract(t *testing.T) {
	tr := NewRequestTracker(8)
	r := tr.Start(RequestInfo{ID: "u1", Tenant: "acme", Kind: "solve"})
	r.SetQueueWait(1500 * time.Millisecond)
	r.SetSolve(250*time.Millisecond, 1000, 64)
	r.Finish("ok")
	d := tr.Dump()
	if len(d.Recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(d.Recent))
	}
	snap := d.Recent[0]
	if snap.QueueWaitSecs != 1.5 {
		t.Errorf("queueWaitSeconds = %v, want 1.5 (1500ms expressed in seconds)", snap.QueueWaitSecs)
	}
	if snap.SolveSecs != 0.25 {
		t.Errorf("solveSeconds = %v, want 0.25", snap.SolveSecs)
	}
	if snap.TotalSecs < 0 || snap.TotalSecs > 60 {
		t.Errorf("totalSeconds = %v, out of plausible range for wall-clock seconds", snap.TotalSecs)
	}
}
