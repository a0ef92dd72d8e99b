package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"realroots/internal/trace"
)

func getBody(t *testing.T, url string) (int, string) {
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
	return resp.StatusCode, string(body)
}

func TestDebugTracesAndTenantsEndpoints(t *testing.T) {
	tel := New(Config{})
	if tel.Traces() == nil || tel.TailSampler() == nil || tel.Tenants() == nil {
		t.Fatal("hub did not wire store/sampler/ledger")
	}

	// Retain one error trace and account one tenant.
	tr := trace.New()
	tr.SetRequestID("req-1")
	l := tr.Lane(trace.ControlLane, "control")
	l.Begin("solve", trace.CatPhase)
	l.End()
	tel.Traces().NoteSeen()
	seq := tel.Traces().Add(trace.RetainedTrace{
		RequestID: "req-1", Tenant: "acme", Outcome: "error",
		Reason: trace.ReasonError, Start: time.Now(),
		WallSeconds: 0.1, Workers: 2, Spans: 1,
	}, tr)
	tel.Tenants().AddRequest("acme")

	srv, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// JSON dump validates and carries the retained trace.
	code, body := getBody(t, base+"/debug/traces?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces json status %d", code)
	}
	if err := trace.ValidateStoreJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/traces dump invalid: %v", err)
	}
	if !strings.Contains(body, "req-1") {
		t.Error("/debug/traces dump missing retained trace")
	}

	// HTML index renders with a link to the Chrome export.
	code, body = getBody(t, base+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, "req-1") {
		t.Fatalf("/debug/traces html: status %d, body %q", code, body)
	}

	// Per-trace Chrome export download.
	code, body = getBody(t, base+"/debug/traces/1")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/%d status %d", seq, code)
	}
	if err := trace.ValidateChrome([]byte(body)); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if code, _ := getBody(t, base+"/debug/traces/999"); code != http.StatusNotFound {
		t.Errorf("absent seq status %d, want 404", code)
	}
	if code, _ := getBody(t, base+"/debug/traces/nonsense"); code != http.StatusBadRequest {
		t.Errorf("bad seq status %d, want 400", code)
	}

	// Tenants dump, JSON and HTML.
	code, body = getBody(t, base+"/debug/tenants?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/tenants json status %d", code)
	}
	if err := ValidateTenantsJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/tenants dump invalid: %v", err)
	}
	code, body = getBody(t, base+"/debug/tenants")
	if code != http.StatusOK || !strings.Contains(body, "acme") {
		t.Fatalf("/debug/tenants html: status %d", code)
	}
}
