package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/model"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/telemetry"
	"realroots/internal/workload"
)

// postSolve sends a solve request body and decodes the response.
func postSolve(t *testing.T, url string, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
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

func decodeOK(t *testing.T, status int, data []byte) *SolveResponse {
	t.Helper()
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, data)
	}
	return &out
}

func decodeErr(t *testing.T, data []byte) ErrorBody {
	t.Helper()
	var out ErrorResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding error response: %v (%s)", err, data)
	}
	return out.Error
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, hs
}

// TestSolvePolyE2E solves x²-2 over HTTP and checks that the returned
// rational really is a 2⁻µ-approximation of ±√2.
func TestSolvePolyE2E(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]},"precision":48}`)
	out := decodeOK(t, status, data)
	if out.Degree != 2 || out.Distinct != 2 || len(out.Roots) != 2 {
		t.Fatalf("degree/distinct/roots = %d/%d/%d, want 2/2/2", out.Degree, out.Distinct, len(out.Roots))
	}
	if out.Precision != 48 || out.Profile != "schoolbook" || out.Method != "hybrid" {
		t.Fatalf("echo fields = %d/%s/%s", out.Precision, out.Profile, out.Method)
	}
	if out.BitOps <= 0 || out.EstimatedBitOps <= 0 || out.Metrics == nil {
		t.Fatalf("missing accounting: bitOps=%d est=%d metrics=%v", out.BitOps, out.EstimatedBitOps, out.Metrics)
	}
	// |r² − 2| ≤ 2⁻µ·(2√2 + 2⁻µ) < 4·2⁻µ for any r within 2⁻µ of ±√2.
	tol := new(big.Rat).SetFrac(big.NewInt(4), new(big.Int).Lsh(big.NewInt(1), 48))
	for i, r := range out.Roots {
		if r.Multiplicity != 1 {
			t.Errorf("root %d multiplicity = %d, want 1", i, r.Multiplicity)
		}
		v, ok := new(big.Rat).SetString(r.Value)
		if !ok {
			t.Fatalf("root %d value %q is not a rational", i, r.Value)
		}
		diff := new(big.Rat).Sub(new(big.Rat).Mul(v, v), big.NewRat(2, 1))
		if diff.Abs(diff).Cmp(tol) > 0 {
			t.Errorf("root %d = %s: |r²-2| = %s > %s", i, r.Value, diff.FloatString(20), tol.FloatString(20))
		}
	}
	if !strings.HasPrefix(out.Roots[0].Value, "-") {
		t.Errorf("roots not ascending: first = %q, want the negative root", out.Roots[0].Value)
	}
}

// TestSolveMultiplicities solves (x-1)²(x+2) = x³-3x+2 and expects the
// multiplicity structure in the response.
func TestSolveMultiplicities(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["2","-3","0","1"]},"precision":32}`)
	out := decodeOK(t, status, data)
	if out.Degree != 3 || out.Distinct != 2 {
		t.Fatalf("degree/distinct = %d/%d, want 3/2", out.Degree, out.Distinct)
	}
	want := map[string]int{"-2": 1, "1": 2}
	for _, r := range out.Roots {
		v, _ := new(big.Rat).SetString(r.Value)
		key := v.RatString()
		if m, ok := want[key]; !ok || m != r.Multiplicity {
			t.Errorf("root %s multiplicity %d, want %v", key, r.Multiplicity, want)
		}
	}
}

// TestSolveMatrixE2E sends a symmetric matrix and checks the
// eigenvalues of [[2,1],[1,2]] (1 and 3) exactly.
func TestSolveMatrixE2E(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, _, data := postSolve(t, hs.URL, `{"matrix":{"rows":[[2,1],[1,2]]},"precision":32}`)
	out := decodeOK(t, status, data)
	if out.Degree != 2 || len(out.Roots) != 2 {
		t.Fatalf("degree/roots = %d/%d, want 2/2", out.Degree, len(out.Roots))
	}
	for i, wantV := range []string{"1", "3"} {
		v, _ := new(big.Rat).SetString(out.Roots[i].Value)
		if v.RatString() != wantV {
			t.Errorf("eigenvalue %d = %s, want %s", i, v.RatString(), wantV)
		}
	}
}

// TestSolveErrorTable drives every request-level error class end to
// end and checks status code and typed JSON code.
func TestSolveErrorTable(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed JSON", `{"poly":`, 400, CodeBadRequest},
		{"unknown field", `{"poly":{"coeffs":["1","1"]},"frob":1}`, 400, CodeBadRequest},
		{"constant poly", `{"poly":{"coeffs":["7"]}}`, 400, CodeBadRequest},
		{"both forms", `{"poly":{"coeffs":["1","1"]},"matrix":{"rows":[[1]]}}`, 400, CodeBadRequest},
		{"bad coefficient", `{"poly":{"coeffs":["1","x"]}}`, 400, CodeBadRequest},
		{"zero leading coeff", `{"poly":{"coeffs":["1","0"]}}`, 400, CodeBadRequest},
		{"bad tenant", `{"tenant":"a b","poly":{"coeffs":["1","1"]}}`, 400, CodeBadRequest},
		{"ragged matrix", `{"matrix":{"rows":[[1,2],[3]]}}`, 400, CodeBadRequest},
		{"not symmetric", `{"matrix":{"rows":[[1,2],[3,4]]}}`, 422, CodeNotSymmetric},
		{"not all real", `{"poly":{"coeffs":["1","0","1"]}}`, 422, CodeNotAllReal},
		{"budget exceeded", `{"poly":{"coeffs":["-2","0","1"]},"precision":64,"maxBitOps":1}`, 422, CodeBudget},
		{"timeout", fmt.Sprintf(`{"matrix":{"rows":%s},"timeoutMs":1,"precision":256}`, bigMatrixJSON(12)), 504, CodeDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, data := postSolve(t, hs.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (%s)", status, tc.status, data)
			}
			if e := decodeErr(t, data); e.Code != tc.code {
				t.Errorf("code = %q, want %q (message %q)", e.Code, tc.code, e.Message)
			}
		})
	}
}

// TestReservedTenantNames pins that a client cannot send the names of
// the ledger's synthetic rows: "anonymous" and "other" are refused with
// 400 bad_request by the decoder, over HTTP and by the in-process
// Server.Solve, before anything is solved or accounted to them, while
// names that only contain them pass.
func TestReservedTenantNames(t *testing.T) {
	isBadRequest := func(err error) bool {
		var re *RequestError
		return errors.As(err, &re) && re.Code == CodeBadRequest
	}
	for _, tenant := range []string{AnonymousTenant, OverflowTenant} {
		body := fmt.Sprintf(`{"tenant":%q,"poly":{"coeffs":["-2","0","1"]}}`, tenant)
		if _, err := DecodeSolveRequest([]byte(body)); !isBadRequest(err) {
			t.Errorf("tenant %q: decode error %v, want %s", tenant, err, CodeBadRequest)
		}
	}
	s, hs := newTestServer(t, Config{})
	status, _, data := postSolve(t, hs.URL, `{"tenant":"other","poly":{"coeffs":["-2","0","1"]}}`)
	if status != 400 || decodeErr(t, data).Code != CodeBadRequest {
		t.Errorf("tenant other over HTTP: status %d, body %s; want 400 %s", status, data, CodeBadRequest)
	}
	for _, tenant := range []string{AnonymousTenant, OverflowTenant} {
		req, err := DecodeSolveRequest([]byte(`{"tenant":"a","poly":{"coeffs":["-3","0","1"]}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Tenant = tenant // in-process callers may set the tenant after decoding
		if _, err := s.Solve(context.Background(), req); !isBadRequest(err) {
			t.Errorf("tenant %q in process: error %v, want %s", tenant, err, CodeBadRequest)
		}
	}
	// The three refusals are accounted like undecodable bodies: to the
	// anonymous row, as errors, with nothing solved.
	for _, r := range s.tenants.dump().Tenants {
		if r.Tenant == OverflowTenant || r.Tenant == AnonymousTenant && (r.Requests != 3 || r.Errors != 3 || r.Solves != 0) {
			t.Errorf("ledger row %+v after three refused requests", r)
		}
	}
	for _, tenant := range []string{"Other", "anonymous2", "others"} {
		body := fmt.Sprintf(`{"tenant":%q,"poly":{"coeffs":["-2","0","1"]}}`, tenant)
		req, err := DecodeSolveRequest([]byte(body))
		if err != nil {
			t.Errorf("tenant %q refused: %v", tenant, err)
			continue
		}
		if _, err := s.Solve(context.Background(), req); err != nil {
			t.Errorf("tenant %q refused in process: %v", tenant, err)
		}
	}
}

// bigMatrixJSON renders the identity-plus-band symmetric matrix used
// to make a solve slow enough to trip a 1 ms deadline.
func bigMatrixJSON(n int) string {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			switch {
			case i == j:
				fmt.Fprintf(&b, "%d", i+1)
			case i+1 == j || j+1 == i:
				b.WriteString("1")
			default:
				b.WriteString("0")
			}
		}
		b.WriteByte(']')
	}
	b.WriteByte(']')
	return b.String()
}

// TestRateLimit exercises the per-tenant token bucket with an
// injectable clock: burst allows two, the third is 429 with
// Retry-After, and advancing the clock readmits.
func TestRateLimit(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	_, hs := newTestServer(t, Config{
		RatePerSec: 1, Burst: 2,
		Now: func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return now
		},
	})
	body := `{"tenant":"alice","poly":{"coeffs":["-2","0","1"]}}`
	for i := 0; i < 2; i++ {
		status, _, data := postSolve(t, hs.URL, body)
		decodeOK(t, status, data)
	}
	status, hdr, data := postSolve(t, hs.URL, body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429 (%s)", status, data)
	}
	e := decodeErr(t, data)
	if e.Code != CodeRateLimited {
		t.Fatalf("code = %q, want %q", e.Code, CodeRateLimited)
	}
	if hdr.Get("Retry-After") == "" || e.RetryAfterSeconds < 1 {
		t.Errorf("missing Retry-After: header %q, body %d", hdr.Get("Retry-After"), e.RetryAfterSeconds)
	}
	// A different tenant is not throttled.
	status, _, data = postSolve(t, hs.URL, `{"tenant":"bob","poly":{"coeffs":["-2","0","1"]}}`)
	decodeOK(t, status, data)
	// Accrue one token for alice and retry.
	clockMu.Lock()
	now = now.Add(1100 * time.Millisecond)
	clockMu.Unlock()
	status, _, data = postSolve(t, hs.URL, body)
	decodeOK(t, status, data)
}

// TestAdmissionOverload holds one solve in flight via a stalling fault
// hook and checks that it reserves exactly its model estimate, even
// after another solve has completed, and that a second, budget-busting
// request is rejected with 429 overloaded while the first occupies the
// budget.
func TestAdmissionOverload(t *testing.T) {
	gate := make(chan struct{})
	s, hs := newTestServer(t, Config{
		MaxConcurrent:     4,
		MaxInflightBitOps: 1, // any second concurrent request oversubscribes
		Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) func(int64) {
			return func(int64) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
		},
	})

	// A completed solve of another polynomial first (one worker, so the
	// fault hook does not stall it): what it measured must not change
	// what later requests reserve.
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-3","0","1"]},"workers":1}`)
	decodeOK(t, status, data)

	req, err := DecodeSolveRequest([]byte(`{"poly":{"coeffs":["-2","0","1"]},"workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan *SolveResponse, 1)
	go func() {
		resp, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Errorf("stalled request: %v", err)
		}
		first <- resp
	}()
	waitFor(t, func() bool { return s.active.Load() == 1 })
	held := s.reserved.Load()

	status, hdr, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-6","1","1"]},"workers":2}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", status, data)
	}
	if e := decodeErr(t, data); e.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", e.Code, CodeOverloaded)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 overloaded without Retry-After")
	}

	close(gate) // release every stalled task
	if resp := <-first; resp != nil && held != resp.EstimatedBitOps {
		t.Errorf("reserved %d bit ops while the stalled solve ran, want its estimatedBitOps %d", held, resp.EstimatedBitOps)
	}
	waitFor(t, func() bool { return s.reserved.Load() == 0 })
}

// TestReserveSaturatedEstimate: the largest admissible requests'
// estimates saturate at math.MaxInt64. One such solve runs alone, and
// while it holds the budget no other request is admitted — the sum of
// the reservations must not wrap past it.
func TestReserveSaturatedEstimate(t *testing.T) {
	if est := model.EstimateBitOps(MaxDegree, MaxCoeffDigits*10/3, MaxPrecision); est != math.MaxInt64 {
		t.Fatalf("largest request's estimate %d, want the saturated %d", est, int64(math.MaxInt64))
	}
	s := New(Config{MaxInflightBitOps: 1000})
	if !s.reserve(math.MaxInt64) {
		t.Fatal("saturated estimate refused on an idle server")
	}
	if s.reserve(1) {
		t.Errorf("second request admitted beside a saturated one: reserved %d", s.reserved.Load())
	}
	s.reserved.Add(-math.MaxInt64)
	if !s.reserve(1000) || s.reserve(1) {
		t.Errorf("after release: reserved %d, want exactly the budget admitted", s.reserved.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrain checks graceful drain: a stalled in-flight solve is
// canceled at the drain deadline, new requests get 503 draining, and
// Drain returns.
func TestDrain(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := New(Config{
		Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) func(int64) {
			return func(int64) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
		},
	})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	type result struct {
		status int
		data   []byte
	}
	errc := make(chan result, 1)
	go func() {
		status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]},"workers":2}`)
		errc <- result{status, data}
	}()
	waitFor(t, func() bool { return s.active.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("drain took %s", since)
	}
	select {
	case r := <-errc:
		// The stalled solve was canceled at the drain deadline.
		if r.status == http.StatusOK {
			t.Error("stalled solve returned 200 despite drain cancellation")
		} else if e := decodeErr(t, r.data); e.Code != CodeCanceled && e.Code != CodeDeadline && e.Code != CodeDraining {
			t.Errorf("in-flight request ended with %q, want a cancellation code", e.Code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not finish after drain")
	}

	// New work is refused while drained.
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]}}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d (%s)", status, data)
	}
	if e := decodeErr(t, data); e.Code != CodeDraining {
		t.Errorf("post-drain code = %q, want %q", e.Code, CodeDraining)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestMetricsEndpoint checks the combined exposition: solver families
// from the telemetry registry plus the rootd_* request families, valid
// under the strict exposition parser.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, _, data := postSolve(t, hs.URL, `{"poly":{"coeffs":["-2","0","1"]}}`)
	decodeOK(t, status, data)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`rootd_requests_total{code="ok"} 1`,
		"rootd_cache_events_total{event=\"miss\"} 1",
		"rootd_solve_queue_depth 0",
		"rootd_draining 0",
		"realroots_solves_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTenantLabelsMatchLedger: 70 tenants overflow the ledger's cap of
// MaxTenants, and the per-tenant histograms are labelled with
// the ledger's row names, so /metrics and /debug/tenants name the same
// tenants and fold the same ones into "other".
func TestTenantLabelsMatchLedger(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	const tenants = 70
	for i := 0; i < tenants; i++ {
		// A distinct polynomial per tenant, so each request leads a solve
		// and is observed on the queue-wait histogram too.
		body := fmt.Sprintf(`{"tenant":"t%02d","poly":{"coeffs":["%d","0","1"]},"precision":8}`, i, -(i + 2))
		status, _, data := postSolve(t, hs.URL, body)
		decodeOK(t, status, data)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var dump TenantsDump
	if err := json.Unmarshal(get("/debug/tenants?format=json"), &dump); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range dump.Tenants {
		rows = append(rows, r.Tenant)
	}
	if len(rows) != MaxTenants+1 || !slices.Contains(rows, OverflowTenant) {
		t.Fatalf("ledger rows %v, want %d tenants and %q", rows, MaxTenants, OverflowTenant)
	}
	metrics := string(get("/metrics"))
	for _, family := range []string{"rootd_request_seconds", "rootd_queue_wait_seconds"} {
		prefix := family + `_count{tenant="`
		var labels []string
		for _, line := range strings.Split(metrics, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				labels = append(labels, rest[:strings.IndexByte(rest, '"')])
			}
		}
		slices.Sort(labels)
		if !slices.Equal(labels, rows) {
			t.Errorf("%s tenant labels %v, want the ledger rows %v", family, labels, rows)
		}
	}
}

// TestSolveInProcess exercises the exported Solve path (the loadtest
// client's in-process mode) without HTTP.
func TestSolveInProcess(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	req, err := DecodeSolveRequest([]byte(`{"poly":{"coeffs":["-3","0","1"]},"precision":40,"profile":"fast"}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Profile != "fast" || len(out.Roots) != 2 {
		t.Fatalf("profile=%s roots=%d, want fast/2", out.Profile, len(out.Roots))
	}
}

// TestRetryAfterClamp is the regression pin for the Retry-After bug: a
// retryable failure whose computed backoff rounds below one second —
// including the zero duration a nearly-replenished token bucket can
// hand back — must still advertise Retry-After: 1 in both the header
// and the body, never 0 or a missing header (clients honoring a zero
// would retry in a busy loop).
func TestRetryAfterClamp(t *testing.T) {
	for _, retry := range []time.Duration{0, time.Microsecond, 300 * time.Millisecond} {
		w := httptest.NewRecorder()
		writeError(w, &RequestError{Code: CodeRateLimited, Msg: "slow down", retryAfter: retry})
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("retry=%v: status = %d, want 429", retry, w.Code)
		}
		if hdr := w.Result().Header.Get("Retry-After"); hdr != "1" {
			t.Errorf("retry=%v: Retry-After header = %q, want \"1\"", retry, hdr)
		}
		if e := decodeErr(t, w.Body.Bytes()); e.RetryAfterSeconds != 1 {
			t.Errorf("retry=%v: body retryAfterSeconds = %d, want 1", retry, e.RetryAfterSeconds)
		}
	}
	// Backoffs of a second or more pass through, rounded up.
	w := httptest.NewRecorder()
	writeError(w, &RequestError{Code: CodeRateLimited, Msg: "slow down", retryAfter: 2500 * time.Millisecond})
	if hdr := w.Result().Header.Get("Retry-After"); hdr != "3" {
		t.Errorf("Retry-After header = %q, want \"3\"", hdr)
	}
	// Non-retryable statuses advertise nothing.
	w = httptest.NewRecorder()
	writeError(w, &RequestError{Code: CodeBadRequest, Msg: "no"})
	if hdr := w.Result().Header.Get("Retry-After"); hdr != "" {
		t.Errorf("400 carries Retry-After %q", hdr)
	}
	if e := decodeErr(t, w.Body.Bytes()); e.RetryAfterSeconds != 0 {
		t.Errorf("400 body retryAfterSeconds = %d, want 0", e.RetryAfterSeconds)
	}
}

// TestTimeoutBoundsWideCoefficients sends Π (x - (i·2^30 + i²)),
// i = 1..40 — squarefree, with 1360-bit coefficients — in poly form
// with a 100 ms timeout. The solve's deadline covers everything from
// the remainder sequence on, so the 504 arrives well within a second.
func TestTimeoutBoundsWideCoefficients(t *testing.T) {
	roots := make([]*mp.Int, 40)
	for i := range roots {
		k := int64(i) + 1
		roots[i] = mp.NewInt(k<<30 + k*k)
	}
	p := poly.FromRoots(roots...)
	coeffs := make([]string, p.Degree()+1)
	for i := range coeffs {
		coeffs[i] = strconv.Quote(p.Coeff(i).String())
	}
	body := fmt.Sprintf(`{"poly":{"coeffs":[%s]},"timeoutMs":100}`, strings.Join(coeffs, ","))

	_, hs := newTestServer(t, Config{})
	start := time.Now()
	status, _, data := postSolve(t, hs.URL, body)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, data)
	}
	if e := decodeErr(t, data); e.Code != CodeDeadline {
		t.Errorf("code = %q, want %q", e.Code, CodeDeadline)
	}
	if elapsed > time.Second {
		t.Errorf("504 after %v, want within 1s of a 100ms timeout", elapsed)
	}
}

// TestTimeoutBoundsWideMatrix sends the largest matrix rootd admits,
// symmetric with full-width entries and MinInt64 on the diagonal, and a
// 20 ms timeout. Its characteristic polynomial needs 135 primes; it is
// the solve's first phase and polls the deadline once per prime, so the
// 504 arrives well within a second.
func TestTimeoutBoundsWideMatrix(t *testing.T) {
	m, err := json.Marshal(workload.SymmetricRowsWide(1, MaxMatrixDim))
	if err != nil {
		t.Fatal(err)
	}

	_, hs := newTestServer(t, Config{})
	start := time.Now()
	status, _, data := postSolve(t, hs.URL, fmt.Sprintf(`{"matrix":{"rows":%s},"timeoutMs":20}`, m))
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", status, data)
	}
	if e := decodeErr(t, data); e.Code != CodeDeadline {
		t.Errorf("code = %q, want %q", e.Code, CodeDeadline)
	}
	if elapsed > time.Second {
		t.Errorf("504 after %v, want within 1s of a 20ms timeout", elapsed)
	}
}

// priceMatrix decodes a matrix request for rows and returns the
// coefficient size, in bits, that admission prices it at.
func priceMatrix(t *testing.T, rows [][]int64) int {
	t.Helper()
	body, err := json.Marshal(SolveRequest{Matrix: &MatrixInput{Rows: rows}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeSolveRequest(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return req.coeffBits()
}

// TestCoeffBitsCoversCharPoly: admission prices a matrix request at no
// fewer coefficient bits than its characteristic polynomial has, for
// full-width entries at the largest admissible dimension and for 0-1
// entries.
func TestCoeffBitsCoversCharPoly(t *testing.T) {
	for _, c := range []struct {
		name string
		rows [][]int64
	}{
		{"wide n=64", workload.SymmetricRowsWide(67, MaxMatrixDim)},
		{"0-1 n=24", workload.SymmetricRows01(5, 24)},
	} {
		m, err := charpoly.FromRows(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got, need := priceMatrix(t, c.rows), charpoly.CharPoly(m).MaxCoeffBits(); got < need {
			t.Errorf("%s: priced at %d bits, the charpoly has %d-bit coefficients", c.name, got, need)
		}
	}
}

// TestCoeffBitsMinInt64 pins admission pricing of matrices with
// MinInt64 entries: |MinInt64| = 2^63 is one bit wider than MaxInt64,
// so such a matrix must be priced at least as high as its MaxInt64
// twin.
func TestCoeffBitsMinInt64(t *testing.T) {
	price := func(rows [][]int64) int { return priceMatrix(t, rows) }
	fill := func(n int, diagOnly bool, v int64) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				if !diagOnly || i == j {
					rows[i][j] = v
				}
			}
		}
		return rows
	}
	cases := []struct {
		name     string
		n        int
		diagOnly bool
	}{
		{"diag", 1, true},
		{"diag", 2, true},
		{"diag", 64, true},
		{"full", 64, false},
	}
	for _, c := range cases {
		lo := price(fill(c.n, c.diagOnly, math.MinInt64))
		hi := price(fill(c.n, c.diagOnly, math.MaxInt64))
		if lo < hi {
			t.Errorf("%s n=%d: MinInt64 priced at %d bits, below MaxInt64's %d", c.name, c.n, lo, hi)
		}
	}
}
