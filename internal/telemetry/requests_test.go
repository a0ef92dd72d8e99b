package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"realroots/internal/trace"
)

func TestRequestTrackerLifecycle(t *testing.T) {
	tr := NewRequestTracker(8)
	r := tr.Start(RequestInfo{
		ID: "req-1", Tenant: "acme", Kind: "solve", Method: "poly",
		Profile: "paper", Degree: 12, Mu: 32, EstimatedBitOps: 1000,
	})
	r.SetCacheOutcome("miss")
	r.SetQueueWait(5 * time.Millisecond)
	r.SetPhase("refine")

	d := tr.Dump()
	if len(d.Active) != 1 || len(d.Recent) != 0 {
		t.Fatalf("mid-flight dump: %d active, %d recent, want 1, 0", len(d.Active), len(d.Recent))
	}
	a := d.Active[0]
	if a.ID != "req-1" || !a.Active || a.Phase != "refine" || a.CacheOutcome != "miss" {
		t.Fatalf("active snapshot = %+v", a)
	}
	if a.TotalSecs <= 0 {
		t.Error("active snapshot has no elapsed time")
	}

	r.SetSolve(20*time.Millisecond, 2500, 96)
	r.Finish("ok")

	d = tr.Dump()
	if len(d.Active) != 0 || len(d.Recent) != 1 {
		t.Fatalf("post-finish dump: %d active, %d recent, want 0, 1", len(d.Active), len(d.Recent))
	}
	got := d.Recent[0]
	if got.Outcome != "ok" || got.Active {
		t.Fatalf("finished snapshot = %+v", got)
	}
	if got.ActualBitOps != 2500 || got.PeakOperandBits != 96 {
		t.Fatalf("solve numbers = %+v", got)
	}
	if got.CostRatio != 2.5 {
		t.Fatalf("CostRatio = %v, want 2.5 (actual 2500 / estimated 1000)", got.CostRatio)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRequestTrackerRingWrap(t *testing.T) {
	const capacity = 4
	tr := NewRequestTracker(capacity)
	for i := 0; i < 10; i++ {
		r := tr.Start(RequestInfo{ID: fmt.Sprintf("req-%d", i)})
		r.Finish("ok")
	}
	d := tr.Dump()
	if d.Total != 10 {
		t.Fatalf("Total = %d, want 10", d.Total)
	}
	if len(d.Recent) != capacity {
		t.Fatalf("%d recent entries, want ring capacity %d", len(d.Recent), capacity)
	}
	// Newest first: 9, 8, 7, 6.
	for i, want := range []string{"req-9", "req-8", "req-7", "req-6"} {
		if d.Recent[i].ID != want {
			t.Errorf("Recent[%d].ID = %s, want %s", i, d.Recent[i].ID, want)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNilRequestTracker(t *testing.T) {
	var tr *RequestTracker
	r := tr.Start(RequestInfo{ID: "x"})
	if r != nil {
		t.Fatal("nil tracker returned a non-nil handle")
	}
	// All handle methods must no-op on nil.
	r.SetPhase("p")
	r.SetCacheOutcome("miss")
	r.SetQueueWait(time.Second)
	r.SetSolve(time.Second, 1, 1)
	r.Finish("ok")
	d := tr.Dump()
	if d == nil || d.Schema != RequestsSchema {
		t.Fatalf("nil tracker Dump = %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("empty dump invalid: %v", err)
	}
}

func TestValidateRequestsJSON(t *testing.T) {
	tr := NewRequestTracker(4)
	tr.Start(RequestInfo{ID: "live", Tenant: "acme"})
	done := tr.Start(RequestInfo{ID: "done", EstimatedBitOps: 10})
	done.SetSolve(time.Millisecond, 20, 8)
	done.SetPhaseSeconds([]trace.NamedTime{{Name: "remainder", Wall: 250 * time.Millisecond}, {Name: "solve", Wall: time.Second}})
	done.Finish("ok")

	data, err := json.Marshal(tr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	d, err := ValidateRequestsJSON(data)
	if err != nil {
		t.Fatalf("round-tripped dump rejected: %v", err)
	}
	if len(d.Active) != 1 || d.Active[0].ID != "live" {
		t.Fatalf("active after round trip = %+v", d.Active)
	}
	if len(d.Recent) != 1 || d.Recent[0].CostRatio != 2 {
		t.Fatalf("recent after round trip = %+v", d.Recent)
	}
	if want := []PhaseTime{{"remainder", 0.25}, {"solve", 1}}; !slices.Equal(d.Recent[0].PhaseSeconds, want) {
		t.Fatalf("phaseSeconds after round trip = %+v, want %+v", d.Recent[0].PhaseSeconds, want)
	}
	if d.Active[0].PhaseSeconds != nil {
		t.Fatalf("row without a traced solve has phaseSeconds %+v", d.Active[0].PhaseSeconds)
	}

	bad := map[string]string{
		"wrong schema":    `{"schema":"bogus","capacity":4,"total":0}`,
		"not json":        `{`,
		"inactive active": `{"schema":"realroots/requests/v1","capacity":4,"total":1,"active":[{"id":"a","active":false}]}`,
		"active recent":   `{"schema":"realroots/requests/v1","capacity":4,"total":1,"recent":[{"id":"a","active":true,"outcome":"ok"}]}`,
		"missing outcome": `{"schema":"realroots/requests/v1","capacity":4,"total":1,"recent":[{"id":"a","active":false}]}`,
		"over capacity": `{"schema":"realroots/requests/v1","capacity":1,"total":2,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok"},{"id":"b","active":false,"outcome":"ok"}]}`,
		"negative timing": `{"schema":"realroots/requests/v1","capacity":4,"total":1,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok","totalSeconds":-1}]}`,
		"unnamed phase": `{"schema":"realroots/requests/v1","capacity":4,"total":1,"recent":[` +
			`{"id":"a","active":false,"outcome":"ok","phaseSeconds":[{"name":"","seconds":1}]}]}`,
		"negative phase time": `{"schema":"realroots/requests/v1","capacity":4,"total":1,"active":[` +
			`{"id":"a","active":true,"phaseSeconds":[{"name":"solve","seconds":-1}]}]}`,
	}
	for name, doc := range bad {
		if _, err := ValidateRequestsJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted, want rejection", name)
		}
	}
}

// TestRequestTrackerConcurrent exercises the tracker from many
// goroutines while dumping (run with -race).
func TestRequestTrackerConcurrent(t *testing.T) {
	tr := NewRequestTracker(16)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tr.Dump()
			}
		}
	}()
	const goroutines, per = 8, 50
	donec := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer func() { donec <- struct{}{} }()
			for i := 0; i < per; i++ {
				r := tr.Start(RequestInfo{ID: fmt.Sprintf("c%d-%d", g, i)})
				r.SetPhase("solve")
				r.SetSolve(time.Microsecond, 10, 4)
				r.Finish("ok")
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		<-donec
	}
	close(stop)
	d := tr.Dump()
	if d.Total != goroutines*per {
		t.Fatalf("Total = %d, want %d", d.Total, goroutines*per)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// serveDebug fetches one path from a hub's debug server and returns
// the body, failing the test on any transport or status error.
func serveDebug(t *testing.T, hub *Telemetry, path string) []byte {
	t.Helper()
	srv, err := hub.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// TestRequestsEndpoint checks both renderings of /debug/requests on the
// telemetry debug server.
func TestRequestsEndpoint(t *testing.T) {
	hub := New(Config{})
	r := hub.Requests().Start(RequestInfo{
		ID: "dbg-1", Tenant: "acme", Kind: "solve", Degree: 8, Mu: 32, EstimatedBitOps: 100,
	})
	r.SetSolve(time.Millisecond, 250, 64)
	r.Finish("ok")

	data := serveDebug(t, hub, "/debug/requests?format=json")
	d, err := ValidateRequestsJSON(data)
	if err != nil {
		t.Fatalf("/debug/requests json invalid: %v\n%s", err, data)
	}
	if len(d.Recent) != 1 || d.Recent[0].ID != "dbg-1" || d.Recent[0].CostRatio != 2.5 {
		t.Fatalf("dump = %+v", d.Recent)
	}

	html := string(serveDebug(t, hub, "/debug/requests"))
	for _, want := range []string{"dbg-1", "acme", "2.50"} {
		if !strings.Contains(html, want) {
			t.Errorf("html view missing %q:\n%s", want, html)
		}
	}
}
