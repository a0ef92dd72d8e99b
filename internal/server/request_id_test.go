package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"realroots/internal/telemetry"
)

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// postSolveWithID is postSolve plus an X-Request-Id header.
func postSolveWithID(t *testing.T, url, id, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/solve: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestRequestIDPropagation solves concurrently with distinct client
// X-Request-Ids and recovers every ID from the structured log and the
// request inspector, plus the latency-histogram exemplars on /metrics.
// Run with -race: the sinks are written from solve goroutines while
// this test reads.
func TestRequestIDPropagation(t *testing.T) {
	logw := &syncWriter{}
	hub := telemetry.New(telemetry.Config{
		Logger: slog.New(slog.NewJSONHandler(logw, nil)),
	})
	_, hs := newTestServer(t, Config{Telemetry: hub})

	// Distinct polynomials x²-(i+2) so no request dedups into another.
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("prop-%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tenant":"acme","poly":{"coeffs":["%d","0","1"]},"precision":32}`, -(i + 2))
			status, hdr, data := postSolveWithID(t, hs.URL, ids[i], body)
			out := decodeOK(t, status, data)
			if got := hdr.Get("X-Request-Id"); got != ids[i] {
				t.Errorf("response header X-Request-Id = %q, want %q", got, ids[i])
			}
			if out.RequestID != ids[i] {
				t.Errorf("response body requestId = %q, want %q", out.RequestID, ids[i])
			}
		}(i)
	}
	wg.Wait()

	// Sink 1: the structured solve log. Every request's solve is one
	// start and one finish record under its ID, and no line carries an
	// ID outside the set (no cross-request bleed).
	want := make(map[string]bool, n)
	for _, id := range ids {
		want[id] = true
	}
	logged := make(map[string]map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(logw.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		id, ok := rec["requestId"].(string)
		if !ok {
			continue
		}
		if !want[id] {
			t.Errorf("log line carries unknown requestId %q: %s", id, line)
		}
		if logged[id] == nil {
			logged[id] = make(map[string]int)
		}
		logged[id][rec["msg"].(string)]++
	}
	for _, id := range ids {
		if logged[id]["solve start"] != 1 || logged[id]["solve finish"] != 1 {
			t.Errorf("requestId %q logged %v, want one solve start and one solve finish", id, logged[id])
		}
	}

	// Sink 2: the request inspector lists every request, completed with
	// both sides of the cost-model comparison and the per-phase wall
	// times of its solve filled in.
	resp, err := http.Get(hs.URL + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	dump, err := ValidateRequestsJSON(body)
	if err != nil {
		t.Fatalf("/debug/requests invalid: %v\n%s", err, body)
	}
	tracked := make(map[string]RequestSnapshot)
	for _, r := range dump.Recent {
		tracked[r.ID] = r
	}
	for _, id := range ids {
		r, ok := tracked[id]
		if !ok {
			t.Errorf("/debug/requests has no entry for %q", id)
			continue
		}
		if r.Outcome != "ok" || r.CacheOutcome != "miss" {
			t.Errorf("%s: outcome=%q cache=%q, want ok/miss", id, r.Outcome, r.CacheOutcome)
		}
		if r.EstimatedBitOps <= 0 || r.ActualBitOps <= 0 || r.CostRatio <= 0 {
			t.Errorf("%s: cost-model columns estimated=%d actual=%d ratio=%v, want all positive",
				id, r.EstimatedBitOps, r.ActualBitOps, r.CostRatio)
		}
		if len(r.PhaseSeconds) == 0 {
			t.Errorf("%s: leader's row has no phaseSeconds", id)
		}
	}

	// And the exposition: the request-latency histogram is present,
	// strict-validator-clean, with at least one exemplar naming one of
	// our request IDs.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, expo)
	}
	if !strings.Contains(string(expo), `rootd_request_seconds_bucket{tenant="acme",le=`) {
		t.Errorf("exposition missing rootd_request_seconds series for tenant acme")
	}
	exemplar := false
	for _, id := range ids {
		if strings.Contains(string(expo), fmt.Sprintf("# {request_id=%q}", id)) {
			exemplar = true
			break
		}
	}
	if !exemplar {
		t.Errorf("no histogram exemplar names any of the request IDs:\n%s", expo)
	}
}

// TestRequestIDDedup pins the dedup-hit contract: a request answered
// from the single-flight cache carries the asker's own request ID, not
// the original solver's, and the shared cache entry is not mutated.
func TestRequestIDDedup(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheEntries: 16})
	body := `{"poly":{"coeffs":["-2","0","1"]},"precision":32}`

	status, _, data := postSolveWithID(t, hs.URL, "dedup-first", body)
	first := decodeOK(t, status, data)
	if first.Cached || first.RequestID != "dedup-first" {
		t.Fatalf("first solve: cached=%v requestId=%q", first.Cached, first.RequestID)
	}

	status, hdr, data := postSolveWithID(t, hs.URL, "dedup-second", body)
	second := decodeOK(t, status, data)
	if !second.Cached {
		t.Fatal("second identical solve was not answered from cache")
	}
	if second.RequestID != "dedup-second" || hdr.Get("X-Request-Id") != "dedup-second" {
		t.Errorf("cache hit carries requestId %q / header %q, want the asker's dedup-second",
			second.RequestID, hdr.Get("X-Request-Id"))
	}

	// A third asker still gets its own ID: the entry was copied, not
	// overwritten, when the second request stamped its ID.
	status, _, data = postSolveWithID(t, hs.URL, "dedup-third", body)
	third := decodeOK(t, status, data)
	if third.RequestID != "dedup-third" {
		t.Errorf("third asker got requestId %q, want dedup-third", third.RequestID)
	}
	if third.BitOps != first.BitOps {
		t.Errorf("cache hit BitOps = %d, want the original solve's %d", third.BitOps, first.BitOps)
	}
}

// TestRequestIDValidation covers the header contract: generated when
// absent, rejected when malformed.
func TestRequestIDValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body := `{"poly":{"coeffs":["-2","0","1"]}}`

	status, hdr, data := postSolveWithID(t, hs.URL, "", body)
	out := decodeOK(t, status, data)
	if out.RequestID == "" || hdr.Get("X-Request-Id") != out.RequestID {
		t.Errorf("generated ID: body %q, header %q — want matching non-empty", out.RequestID, hdr.Get("X-Request-Id"))
	}
	if !strings.HasPrefix(out.RequestID, "r") {
		t.Errorf("generated ID %q does not carry the r prefix", out.RequestID)
	}

	for _, bad := range []string{"has space", "naïve", strings.Repeat("x", MaxRequestIDLen+1)} {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X-Request-Id %q: status %d, want 400", bad, resp.StatusCode)
			continue
		}
		if e := decodeErr(t, data); e.Code != CodeBadRequest {
			t.Errorf("X-Request-Id %q: code %q, want %q", bad, e.Code, CodeBadRequest)
		}
	}
}
