package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"realroots/internal/metrics"
)

func TestServeEndpoints(t *testing.T) {
	tel := New(Config{})
	run := tel.Start(RunInfo{Kind: "core", Degree: 12, Mu: 16, Workers: 2})
	run.Finish(OutcomeOK, nil, 3, 777, metrics.Report{})

	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}
	if !strings.Contains(body, `realroots_solves_total{outcome="ok"} 1`) {
		t.Fatalf("/metrics missing solve count:\n%s", body)
	}

	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, body, _ := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index page: status %d body %q", code, body)
	}
	if code, _, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

func TestServeNilHub(t *testing.T) {
	var tel *Telemetry
	if _, err := tel.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("nil hub served")
	}
}

func TestServeBadAddr(t *testing.T) {
	tel := New(Config{})
	if _, err := tel.Serve("256.256.256.256:99999"); err == nil {
		t.Fatal("bad address served")
	}
}
