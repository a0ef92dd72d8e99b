// Command validatetrace checks that observability output files emitted
// by rootbench and rootd parse against their schemas: Chrome
// trace-event JSON (rootbench -trace, GET /debug/traces/<seq>),
// Prometheus text expositions (rootbench -metrics-out or GET
// /metrics), request-inspector dumps (GET /debug/requests?format=json),
// tail-sampled trace stores (GET /debug/traces?format=json), per-tenant
// usage ledgers (GET /debug/tenants?format=json) — the three rootd
// views, checked by internal/server's validators — and bench-grid JSON
// (rootbench -json). The file kind is read from the content, so CI can
// pass all of them in one call: an exposition starts with "# HELP";
// any other file is JSON whose top-level "schema" names its kind, and
// a JSON document with no schema and a "traceEvents" array is a Chrome
// trace.
//
// Usage:
//
//	validatetrace trace.json metrics.prom requests.json grid.json ...
//
// Exits 0 when every file validates, 1 otherwise.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"realroots/internal/harness"
	"realroots/internal/server"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validatetrace file ...")
		os.Exit(2)
	}
	code := 0
	for _, path := range os.Args[1:] {
		kind, err := validateFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "validatetrace: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Printf("%s: ok (%s)\n", path, kind)
	}
	os.Exit(code)
}

func validateFile(path string) (kind string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte("# HELP")) {
		return "prometheus-exposition", telemetry.ValidateExposition(data)
	}
	var head struct {
		Schema      string          `json:"schema"`
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("neither a Prometheus exposition nor a JSON object: %w", err)
	}
	switch {
	case head.Schema == server.RequestsSchema:
		_, err := server.ValidateRequestsJSON(data)
		return "requests-dump", err
	case head.Schema == server.StoreSchema:
		return "trace-store", server.ValidateStoreJSON(data)
	case head.Schema == server.TenantsSchema:
		return "tenants-dump", server.ValidateTenantsJSON(data)
	case head.Schema == "" && head.TraceEvents != nil:
		return "chrome-trace", trace.ValidateChrome(data)
	default:
		return "bench-grid", harness.ValidateGridJSON(data)
	}
}
