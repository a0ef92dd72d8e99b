package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// obsConfig builds a server config whose telemetry hub the test can
// read.
func obsConfig() Config {
	return Config{Telemetry: telemetry.New(telemetry.Config{})}
}

const quadratic = `{"poly":{"coeffs":["-2","0","1"]},"precision":48}`

// TestTraceRetainedOnError checks the tentpole acceptance path: a solve
// that trips its bit-ops budget leaves an error-outcome trace in the
// store, tagged with the error reason and exportable as a valid Chrome
// trace.
func TestTraceRetainedOnError(t *testing.T) {
	cfg := obsConfig()
	s, hs := newTestServer(t, cfg)

	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]},"precision":48,"maxBitOps":1}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budget solve status %d, body %s", status, data)
	}
	if code := decodeErr(t, data).Code; code != CodeBudget {
		t.Fatalf("error code %q, want %q", code, CodeBudget)
	}

	d := s.traces.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Retained != 1 || d.ByReason[ReasonError] != 1 {
		t.Fatalf("store retained %d (byReason %v), want 1 error trace", d.Retained, d.ByReason)
	}
	rt := d.Traces[0]
	if rt.Outcome != string(telemetry.OutcomeBudget) {
		t.Errorf("retained outcome %q, want %q", rt.Outcome, telemetry.OutcomeBudget)
	}
	if rt.Spans <= 0 {
		t.Errorf("retained trace has %d spans", rt.Spans)
	}

	// The live entry (not the dump copy) still exports Chrome JSON.
	var buf bytes.Buffer
	if err := s.traces.get(rt.Seq).WriteChrome(&buf); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Metrics side: the retention counter agrees with the store.
	if got := s.traceKept.Value(ReasonError); got != 1 {
		t.Errorf("rootd_traces_retained_total{reason=error} = %v, want 1", got)
	}
}

// TestTraceForcedByHeader checks the X-Debug-Trace escape hatch: a
// healthy fast solve that the sampler would drop is retained as
// "forced" when the header is present.
func TestTraceForcedByHeader(t *testing.T) {
	s, hs := newTestServer(t, obsConfig())

	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", strings.NewReader(quadratic))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Debug-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced solve status %d, body %s", resp.StatusCode, body)
	}

	d := s.traces.dump()
	if d.ByReason[ReasonForced] != 1 {
		t.Fatalf("byReason %v, want one forced trace", d.ByReason)
	}

	// Without the header the same healthy solve is seen but dropped
	// (warmup suppresses slow classification; outcome is ok).
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-3","0","1"]},"precision":48}`)
	if status != http.StatusOK {
		t.Fatalf("plain solve status %d, body %s", status, data)
	}
	d = s.traces.dump()
	if d.Retained != 1 {
		t.Errorf("retained %d traces, want still 1 (healthy solve dropped)", d.Retained)
	}
	if d.Seen != 2 {
		t.Errorf("seen %d solves, want 2", d.Seen)
	}
}

// TestMatrixSolveTracesCharPoly checks that a matrix request's
// characteristic polynomial is a phase of its solve: a charpoly phase
// span in the solve's trace, a phase="charpoly" series in
// rootd_phase_seconds, and the first of the phaseSeconds on the
// leading request's /debug/requests row. A repeat of the request, a
// cache hit, ran no solve and has no phaseSeconds.
func TestMatrixSolveTracesCharPoly(t *testing.T) {
	cfg := obsConfig()
	s, hs := newTestServer(t, cfg)
	const matrix = `{"matrix":{"rows":[[2,1,0],[1,2,1],[0,1,2]]},"precision":32}`
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", strings.NewReader(matrix))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Debug-Trace", "1")
	req.Header.Set("X-Request-Id", "matrix-lead")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix solve status %d, body %s", resp.StatusCode, body)
	}

	d := s.traces.dump()
	if d.Retained != 1 {
		t.Fatalf("retained %d traces, want the forced one", d.Retained)
	}
	// The kept trace of this 2-worker solve carries its measured E_P
	// and serial fraction.
	if rt := d.Traces[0]; rt.Workers != 2 || rt.Efficiency <= 0 || rt.SerialFraction < 0 || rt.SerialFraction > 1 {
		t.Errorf("retained trace has workers %d, efficiency %v, serial fraction %v; want 2, > 0, in [0, 1]",
			rt.Workers, rt.Efficiency, rt.SerialFraction)
	}
	var buf bytes.Buffer
	if err := s.traces.get(d.Traces[0].Seq).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct{ Name, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	phases := 0
	for _, ev := range ct.TraceEvents {
		if ev.Name == "charpoly" && ev.Cat == trace.CatPhase {
			phases++
		}
	}
	if phases != 1 {
		t.Errorf("%d charpoly phase spans in the trace, want 1", phases)
	}

	buf.Reset()
	if err := cfg.Telemetry.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `rootd_phase_seconds_count{phase="charpoly"} 1`; !strings.Contains(buf.String(), want) {
		t.Errorf("/metrics lacks %s", want)
	}

	status, _, data := postSolveWithID(t, hs.URL, "matrix-hit", matrix)
	if out := decodeOK(t, status, data); !out.Cached {
		t.Fatal("repeated matrix request was not a cache hit")
	}
	rows := requestRows(t, hs.URL)
	var got []string
	for _, ph := range rows["matrix-lead"].PhaseSeconds {
		got = append(got, ph.Name)
		if ph.Seconds < 0 {
			t.Errorf("phase %s took %v seconds", ph.Name, ph.Seconds)
		}
	}
	if want := []string{"charpoly", "remainder", "solve"}; !slices.Equal(got, want) {
		t.Errorf("leading request's phaseSeconds %q, want %q", got, want)
	}
	if ph := rows["matrix-hit"].PhaseSeconds; ph != nil {
		t.Errorf("cache hit's row has phaseSeconds %+v", ph)
	}
}

// requestRows reads /debug/requests?format=json, validates it, and
// returns its completed rows by request ID.
func requestRows(t *testing.T, url string) map[string]RequestSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	d, err := ValidateRequestsJSON(body)
	if err != nil {
		t.Fatalf("/debug/requests invalid: %v\n%s", err, body)
	}
	rows := make(map[string]RequestSnapshot)
	for _, r := range d.Recent {
		rows[r.ID] = r
	}
	return rows
}

// TestPhaseSecondsOnlyForTracedLeaders: a request that joined another
// request's solve has no phaseSeconds on its /debug/requests row, and
// with tracing disabled neither has the leader's.
func TestPhaseSecondsOnlyForTracedLeaders(t *testing.T) {
	for _, untraced := range []bool{false, true} {
		gate := make(chan struct{})
		s, hs := newTestServer(t, Config{
			DisableTracing: untraced,
			// The leader's tasks stall until the joiner has joined.
			Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) func(int64) {
				return func(int64) {
					select {
					case <-gate:
					case <-ctx.Done():
					}
				}
			},
		})
		var wg sync.WaitGroup
		post := func(id string) {
			defer wg.Done()
			req, err := DecodeSolveRequest([]byte(`{"poly":{"coeffs":["-2","0","1"]},"workers":2}`))
			if err != nil {
				t.Error(err)
				return
			}
			req.RequestID = id
			if _, err := s.Solve(context.Background(), req); err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}
		wg.Add(2)
		go post("lead")
		waitFor(t, func() bool { return s.active.Load() == 1 })
		go post("join")
		waitFor(t, func() bool { return s.cacheEvts.Value("join") == 1 })
		close(gate)
		wg.Wait()

		rows := requestRows(t, hs.URL)
		if rows["join"].CacheOutcome != "join" {
			t.Fatalf("untraced=%v: second request's cache outcome %q, want join", untraced, rows["join"].CacheOutcome)
		}
		if got := len(rows["lead"].PhaseSeconds); (got == 0) != untraced {
			t.Errorf("untraced=%v: leader's row has %d phases", untraced, got)
		}
		if ph := rows["join"].PhaseSeconds; ph != nil {
			t.Errorf("untraced=%v: joiner's row has phaseSeconds %+v", untraced, ph)
		}
	}
}

// TestTenantLedgerAccountingE2E drives requests for two tenants and
// checks the ledger's request/solve/cache-hit split.
func TestTenantLedgerAccountingE2E(t *testing.T) {
	s, hs := newTestServer(t, obsConfig())

	solve := func(tenant string) {
		t.Helper()
		body := `{"tenant":"` + tenant + `","poly":{"coeffs":["-2","0","1"]},"precision":48}`
		status, _, data := postSolve(t, hs.URL, body)
		if status != http.StatusOK {
			t.Fatalf("tenant %s solve status %d, body %s", tenant, status, data)
		}
	}

	solve("acme") // miss: acme leads the solve
	solve("acme") // hit
	solve("beta") // hit (tenant is not part of the cache key)

	d := s.tenants.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]TenantRow{}
	for _, r := range d.Tenants {
		rows[r.Tenant] = r
	}
	acme, beta := rows["acme"], rows["beta"]
	if acme.Requests != 2 || acme.Solves != 1 || acme.CacheHits != 1 {
		t.Errorf("acme = %+v, want 2 requests / 1 solve / 1 cache hit", acme)
	}
	if acme.BitOps <= 0 || acme.SolveSeconds <= 0 {
		t.Errorf("acme solve cost not accounted: %+v", acme)
	}
	if beta.Requests != 1 || beta.Solves != 0 || beta.CacheHits != 1 {
		t.Errorf("beta = %+v, want 1 request / 0 solves / 1 cache hit", beta)
	}
}

// TestObservabilityMetricsExposed checks the trace-derived families
// appear in /metrics, the removed ones do not, and the whole exposition
// still validates.
func TestObservabilityMetricsExposed(t *testing.T) {
	cfg := obsConfig()
	_, hs := newTestServer(t, cfg)
	// One parallel solve so the trace-derived families have data.
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]},"precision":48,"workers":2}`)
	if status != http.StatusOK {
		t.Fatalf("solve status %d, body %s", status, data)
	}

	var buf bytes.Buffer
	if err := cfg.Telemetry.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := telemetry.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, fam := range []string{
		"rootd_phase_seconds",
		"rootd_traces_retained_total",
		"rootd_tenant_requests_total",
	} {
		if !strings.Contains(body, "# TYPE "+fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	// Request seconds are the histogram's _sum; the tracing tax is
	// perfbench's to measure; queue depth is the tracer's. A solve's
	// cost ratio and peak operand bits are on its request row and its
	// efficiency on its retained trace, so no gauge holds one solve's
	// value; admission charges the model estimate, so no gauge holds a
	// learned correction.
	for _, fam := range []string{
		"rootd_request_seconds_total",
		"rootd_span_overhead_seconds",
		"realroots_sched_max_queue_depth",
		"rootd_model_cost_ratio",
		"rootd_peak_operand_bits",
		"rootd_parallel_efficiency",
		"rootd_serial_fraction",
		"rootd_learned_cost_ratio",
		"rootd_learned_efficiency",
		`reason="low_efficiency"`,
	} {
		if strings.Contains(body, fam) {
			t.Errorf("/metrics still carries the removed family %s", fam)
		}
	}
}

// TestDisableTracing checks the kill switch: no spans recorded, nothing
// retained, solves still succeed.
func TestDisableTracing(t *testing.T) {
	cfg := obsConfig()
	cfg.DisableTracing = true
	s, hs := newTestServer(t, cfg)

	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/solve", strings.NewReader(quadratic))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Debug-Trace", "1") // even forced traces are off
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	d := s.traces.dump()
	if d.Retained != 0 {
		t.Errorf("tracing disabled but %d traces retained", d.Retained)
	}
}
