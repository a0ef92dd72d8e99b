package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/metrics"
	"realroots/internal/telemetry"
)

// answered is the response of a solve that took seconds and bitOps,
// with operands reaching bit-length bucket 6.
func answered(seconds float64, bitOps int64) *SolveResponse {
	var rep metrics.Report
	rep.Phases[0].BitLen[6] = 1
	return &SolveResponse{ElapsedSeconds: seconds, BitOps: bitOps, Metrics: &rep}
}

func TestRequestTrackerLifecycle(t *testing.T) {
	l := newRequestLog()
	r := l.begin("req-1")
	r.update(func(row *RequestSnapshot) {
		row.Tenant, row.Method, row.Profile = "acme", "poly", "paper"
		row.Degree, row.Mu, row.EstimatedBitOps = 12, 32, 1000
		row.CacheOutcome = "miss"
		row.QueueWaitSecs = 0.005
	})
	r.setPhase("refine")

	d := l.dump()
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

	row := l.finish(r, "ok", time.Since(r.start), answered(0.02, 2500))
	d = l.dump()
	if len(d.Active) != 0 || len(d.Recent) != 1 {
		t.Fatalf("post-finish dump: %d active, %d recent, want 0, 1", len(d.Active), len(d.Recent))
	}
	got := d.Recent[0]
	if got.ID != row.ID || got.TotalSecs != row.TotalSecs {
		t.Errorf("ring row %+v, finish returned %+v", got, row)
	}
	if got.Outcome != "ok" || got.Active {
		t.Fatalf("finished snapshot = %+v", got)
	}
	if lo, _ := metrics.BucketRange(6); got.ActualBitOps != 2500 || got.PeakOperandBits != lo {
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
	l := newRequestLog()
	const n = requestRingCapacity + 6
	for i := 0; i < n; i++ {
		r := l.begin(fmt.Sprintf("req-%d", i))
		l.finish(r, "ok", 0, nil)
	}
	d := l.dump()
	if d.Total != n {
		t.Fatalf("Total = %d, want %d", d.Total, n)
	}
	if len(d.Recent) != requestRingCapacity || d.Capacity != requestRingCapacity {
		t.Fatalf("%d recent entries (capacity %d), want ring capacity %d", len(d.Recent), d.Capacity, requestRingCapacity)
	}
	// Newest first.
	for i := 0; i < 4; i++ {
		if want := fmt.Sprintf("req-%d", n-1-i); d.Recent[i].ID != want {
			t.Errorf("Recent[%d].ID = %s, want %s", i, d.Recent[i].ID, want)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRequestsJSON(t *testing.T) {
	l := newRequestLog()
	l.begin("live").update(func(row *RequestSnapshot) { row.Tenant = "acme" })
	done := l.begin("done")
	done.update(func(row *RequestSnapshot) {
		row.EstimatedBitOps = 10
		row.PhaseSeconds = []PhaseTime{{"remainder", 0.25}, {"solve", 1}}
	})
	l.finish(done, "ok", time.Millisecond, answered(0.001, 20))

	data, err := json.Marshal(l.dump())
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

// TestRequestTrackerConcurrent exercises the inspector from many
// goroutines while dumping (run with -race).
func TestRequestTrackerConcurrent(t *testing.T) {
	l := newRequestLog()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				l.dump()
			}
		}
	}()
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := l.begin(fmt.Sprintf("c%d-%d", g, i))
				r.setPhase("solve")
				l.finish(r, "ok", time.Microsecond, answered(1e-6, 10))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	d := l.dump()
	if d.Total != goroutines*per {
		t.Fatalf("Total = %d, want %d", d.Total, goroutines*per)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestRequestsEndpoint checks both renderings of /debug/requests.
func TestRequestsEndpoint(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	r := s.requests.begin("dbg-1")
	r.update(func(row *RequestSnapshot) { row.Tenant, row.Degree, row.Mu, row.EstimatedBitOps = "acme", 8, 32, 100 })
	s.requests.finish(r, "ok", time.Millisecond, answered(0.001, 250))

	data := getView(t, hs.URL+"/debug/requests?format=json")
	d, err := ValidateRequestsJSON(data)
	if err != nil {
		t.Fatalf("/debug/requests json invalid: %v\n%s", err, data)
	}
	if len(d.Recent) != 1 || d.Recent[0].ID != "dbg-1" || d.Recent[0].CostRatio != 2.5 {
		t.Fatalf("dump = %+v", d.Recent)
	}

	html := string(getView(t, hs.URL+"/debug/requests"))
	for _, want := range []string{"dbg-1", "acme", "2.50"} {
		if !strings.Contains(html, want) {
			t.Errorf("html view missing %q:\n%s", want, html)
		}
	}
}

// getView fetches one debug view, failing the test on any transport or
// status error.
func getView(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestRequestUnitsContract pins /debug/requests timings: the
// queueWaitSeconds/solveSeconds/totalSeconds fields are float seconds.
func TestRequestUnitsContract(t *testing.T) {
	l := newRequestLog()
	r := l.begin("u1")
	r.update(func(row *RequestSnapshot) { row.QueueWaitSecs = (1500 * time.Millisecond).Seconds() })
	l.finish(r, "ok", 2*time.Second, answered((250*time.Millisecond).Seconds(), 1000))
	d := l.dump()
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
	if snap.TotalSecs != 2 {
		t.Errorf("totalSeconds = %v, want 2 (a 2s request in seconds)", snap.TotalSecs)
	}
}

// TestRequestViewsAgree sends one request of every kind the server
// sees — answered, cached, rate-limited, failed in the solver, and
// refused before its body decodes — and checks that the three views
// count the same requests per tenant: the ledger's requests, the
// inspector's rows and the rootd_request_seconds observations.
func TestRequestViewsAgree(t *testing.T) {
	s, hs := newTestServer(t, Config{
		RatePerSec: 1, Burst: 2,
		Now: func() time.Time { return time.Unix(1000, 0) },
	})
	post := func(body string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Tenant a: a solve, its cache hit, and a third request over the
	// burst of 2 on the frozen clock. Tenant b: a budget failure. No
	// tenant: an undecodable body and the wrong method.
	const solveA = `{"tenant":"a","poly":{"coeffs":["-2","0","1"]}}`
	post(solveA)
	post(solveA)
	post(solveA)
	post(`{"tenant":"b","poly":{"coeffs":["-3","0","1"]},"maxBitOps":1}`)
	post(`{`)
	resp, err := http.Get(hs.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ledger := map[string]int64{}
	for _, r := range s.tenants.dump().Tenants {
		ledger[r.Tenant] = r.Requests
	}
	rows := map[string]int64{}
	for _, r := range s.requests.dump().Recent {
		tenant := r.Tenant
		if tenant == "" {
			tenant = AnonymousTenant
		}
		rows[tenant]++
	}
	expo := string(getView(t, hs.URL+"/metrics"))
	for tenant, want := range map[string]int64{"a": 3, "b": 1, AnonymousTenant: 2} {
		var observed int64
		fmt.Sscan(metricValue(expo, fmt.Sprintf(`rootd_request_seconds_count{tenant=%q}`, tenant)), &observed)
		if ledger[tenant] != want || rows[tenant] != want || observed != want {
			t.Errorf("tenant %s: ledger %d, inspector %d, rootd_request_seconds %d requests; want %d in each",
				tenant, ledger[tenant], rows[tenant], observed, want)
		}
	}
	if len(ledger) != 3 {
		t.Errorf("ledger rows %v, want a, b and anonymous", ledger)
	}
}

// metricValue returns the value of the exposition sample named by
// series, or "" when it is absent.
func metricValue(expo, series string) string {
	for _, line := range strings.Split(expo, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// TestLedgerClassification pins how the ledger folds one finished
// record of each outcome.
func TestLedgerClassification(t *testing.T) {
	l := newTenantLedger()
	for _, c := range []struct {
		outcome, cache string
		solved         bool
	}{
		{"ok", "miss", true},
		{"ok", "hit", false},
		{CodeRateLimited, "", false},
		{CodeQueueFull, "miss", false},
		{CodeBudget, "miss", true},
		{CodeBadRequest, "", false},
	} {
		rec := &request{solved: c.solved, solveSeconds: 0.5, bitOps: 100}
		l.fold(rec, RequestSnapshot{Tenant: "t", Outcome: c.outcome, CacheOutcome: c.cache})
	}
	got := l.dump().Tenants
	want := []TenantRow{{Tenant: "t", Requests: 6, Solves: 2, SolveSeconds: 1, BitOps: 200,
		CacheHits: 1, Rejections: 2, Errors: 2}}
	if !slices.Equal(got, want) {
		t.Errorf("ledger = %+v, want %+v", got, want)
	}
}

// TestRequestLogUsesHubLogger: the request log record goes to the
// hub's logger, for HTTP and in-process requests alike.
func TestRequestLogUsesHubLogger(t *testing.T) {
	logw := &syncWriter{}
	s, hs := newTestServer(t, Config{Telemetry: telemetry.New(telemetry.Config{
		Logger: slog.New(slog.NewJSONHandler(logw, nil)),
	})})
	status, _, data := postSolveWithID(t, hs.URL, "log-http", `{"poly":{"coeffs":["-2","0","1"]}}`)
	decodeOK(t, status, data)
	postSolveWithID(t, hs.URL, "log-bad", `{`)
	req, err := DecodeSolveRequest([]byte(`{"poly":{"coeffs":["-5","0","1"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.RequestID = "log-inproc"
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	log := logw.String()
	for _, want := range []string{
		`"msg":"request ok","requestId":"log-http"`,
		`"msg":"request failed","requestId":"log-bad"`,
		`"msg":"request ok","requestId":"log-inproc"`,
	} {
		if !strings.Contains(log, want) {
			t.Errorf("request log lacks %s:\n%s", want, log)
		}
	}
}

// TestDebugIndex pins rootd's / index: the hub's /metrics and pprof
// next to the server's three views.
func TestDebugIndex(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	index := string(getView(t, hs.URL+"/"))
	for _, path := range []string{"/metrics", "/debug/requests", "/debug/traces", "/debug/tenants", "/debug/pprof/"} {
		if !strings.Contains(index, "  "+path+" ") {
			t.Errorf("index does not list %s:\n%s", path, index)
		}
	}
	resp, err := http.Get(hs.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}
