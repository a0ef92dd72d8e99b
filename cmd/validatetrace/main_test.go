package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"realroots/internal/harness"
	"realroots/internal/server"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateFileSniffsKinds(t *testing.T) {
	// Chrome trace.
	tr := trace.New()
	l := tr.Lane(trace.ControlLane, "control")
	l.Begin("solve", trace.CatPhase)
	l.End()
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition.
	tel := telemetry.New(telemetry.Config{})
	var expo bytes.Buffer
	if err := tel.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}

	// Bench grid.
	cfg := harness.Quick()
	cfg.Degrees, cfg.Mus, cfg.Procs, cfg.Seeds = []int{6}, []uint{4}, []int{1}, []int64{1}
	cfg.Simulate = true
	var grid bytes.Buffer
	if err := harness.WriteGridJSON(&grid, cfg); err != nil {
		t.Fatal(err)
	}

	// rootd's three views, from a server that answered one request
	// whose ID and tenant are the Chrome trace's top-level key: a
	// request ID or a tenant may be any [A-Za-z0-9._-] name, so the
	// schema decides. Its healthy solve leaves the trace store empty,
	// which is valid.
	srv := server.New(server.Config{})
	defer srv.Drain(context.Background())
	req, err := server.DecodeSolveRequest([]byte(`{"tenant":"traceEvents","poly":{"coeffs":["-2","0","1"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.RequestID = "traceEvents"
	if _, err := srv.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	view := func(path string) []byte {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path+"?format=json", nil))
		return w.Body.Bytes()
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"trace.json", chrome.Bytes(), "chrome-trace"},
		{"metrics.prom", expo.Bytes(), "prometheus-exposition"},
		{"grid.json", grid.Bytes(), "bench-grid"},
		{"traces.json", view("/debug/traces"), "trace-store"},
		{"requests-traceEvents.json", view("/debug/requests"), "requests-dump"},
		{"tenants-traceEvents.json", view("/debug/tenants"), "tenants-dump"},
	}
	for _, tc := range cases {
		kind, err := validateFile(writeTemp(t, tc.name, tc.data))
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if kind != tc.want {
			t.Errorf("%s sniffed as %q, want %q", tc.name, kind, tc.want)
		}
	}
}

func TestValidateFileRejectsCorrupt(t *testing.T) {
	if _, err := validateFile(writeTemp(t, "bad-trace.json", []byte(`{"traceEvents":[]}`))); err == nil {
		t.Error("Chrome trace without events validated")
	}
	corruptExpo := []byte("# HELP a b\na 1\n") // sample without TYPE
	if _, err := validateFile(writeTemp(t, "bad.prom", corruptExpo)); err == nil {
		t.Error("corrupt exposition validated")
	}
	if _, err := validateFile(writeTemp(t, "bad-grid.json", []byte(`{"schema":"nope"}`))); err == nil {
		t.Error("corrupt grid validated")
	}
	if _, err := validateFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file validated")
	}
}

// TestValidateFileRejectsMalformedStoreAndTenants is the malformed-input
// table for the two schemas this PR adds: each case sniffs to the right
// kind (the schema string is present) but must fail validation.
func TestValidateFileRejectsMalformedStoreAndTenants(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"store-not-json", `realroots/trace-store/v1 this is not json`},
		{"store-zero-capacity", `{"schema":"realroots/trace-store/v1","capacity":0,"traces":[]}`},
		{"store-retained-undercount", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":0,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-seq-zero", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":0,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-not-newest-first", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":2,"retained":2,
			"byReason":{"error":2},
			"traces":[{"seq":1,"requestId":"a","outcome":"error","reason":"error"},
			          {"seq":2,"requestId":"b","outcome":"error","reason":"error"}]}`},
		{"store-missing-reason", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"","wallSeconds":0.1}]}`},
		{"store-reason-not-indexed", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"slow":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":0.1}]}`},
		{"store-negative-wall", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","wallSeconds":-1}]}`},
		{"store-serial-fraction-above-one", `{"schema":"realroots/trace-store/v1","capacity":4,"seen":1,"retained":1,
			"byReason":{"error":1},
			"traces":[{"seq":1,"requestId":"r1","outcome":"error","reason":"error","serialFraction":1.5}]}`},
		{"tenants-not-json", `realroots/tenants/v1 {{{`},
		{"tenants-zero-cap", `{"schema":"realroots/tenants/v1","maxTenants":0,"tenants":[]}`},
		{"tenants-empty-id", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"","requests":1}]}`},
		{"tenants-unsorted", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"b","requests":1},{"tenant":"a","requests":1}]}`},
		{"tenants-duplicate", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":1},{"tenant":"a","requests":1}]}`},
		{"tenants-negative-counter", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":-1}]}`},
		{"tenants-overaccounted", `{"schema":"realroots/tenants/v1","maxTenants":64,
			"tenants":[{"tenant":"a","requests":1,"cacheHits":1,"rejections":1}]}`},
	}
	for _, tc := range cases {
		if _, err := validateFile(writeTemp(t, tc.name+".json", []byte(tc.data))); err == nil {
			t.Errorf("%s: malformed input validated", tc.name)
		}
	}
}
