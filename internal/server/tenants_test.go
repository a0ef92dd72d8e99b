package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"realroots/internal/telemetry"
)

// account folds one finished request for tenant into l.
func account(l *tenantLedger, tenant, outcome, cache string, rec *request) {
	if rec == nil {
		rec = &request{}
	}
	l.fold(rec, RequestSnapshot{Tenant: tenant, Outcome: outcome, CacheOutcome: cache})
}

func TestTenantLedgerAccounting(t *testing.T) {
	l := newTenantLedger()
	account(l, "acme", "ok", "miss", &request{solved: true, solveSeconds: 0.5, bitOps: 1000, retained: true})
	account(l, "acme", "ok", "hit", nil)
	account(l, "acme", CodeOverloaded, "miss", nil)
	account(l, "acme", CodeNotAllReal, "miss", nil)
	account(l, "", CodeBadRequest, "", nil) // anonymous

	d := l.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]TenantRow{}
	for _, r := range d.Tenants {
		rows[r.Tenant] = r
	}
	acme := rows["acme"]
	if acme.Requests != 4 || acme.Solves != 1 || acme.SolveSeconds != 0.5 ||
		acme.BitOps != 1000 || acme.CacheHits != 1 || acme.Rejections != 1 ||
		acme.Errors != 1 || acme.RetainedTraces != 1 {
		t.Errorf("acme row = %+v", acme)
	}
	if rows[AnonymousTenant].Requests != 1 {
		t.Errorf("anonymous row = %+v, want 1 request", rows[AnonymousTenant])
	}

	// Round-trip through the JSON validator entry point.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTenantsJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestTenantLedgerOverflow(t *testing.T) {
	l := newTenantLedger()
	for i := 0; i < MaxTenants+2; i++ {
		if name := l.fold(&request{}, RequestSnapshot{Tenant: fmt.Sprintf("t%02d", i), Outcome: "ok"}); i >= MaxTenants && name != OverflowTenant {
			t.Errorf("tenant %d past the cap accounted as %q, want %q", i, name, OverflowTenant)
		}
	}
	account(l, "", "ok", "miss", nil)    // anonymous does not count against the cap
	account(l, "t00", "ok", "miss", nil) // an existing row still resolves directly

	d := l.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range d.Tenants {
		got[r.Tenant] = r.Requests
	}
	if len(got) != MaxTenants+2 {
		t.Fatalf("%d rows, want %d tenants, %q and %q", len(got), MaxTenants, OverflowTenant, AnonymousTenant)
	}
	for k, v := range map[string]int64{"t00": 2, "t01": 1, OverflowTenant: 2, AnonymousTenant: 1} {
		if got[k] != v {
			t.Errorf("row %q = %d requests, want %d", k, got[k], v)
		}
	}
}

// TestTenantLedgerConcurrent hammers row creation and accounting from
// many goroutines (run with -race): the copy-on-write map must not lose
// updates when rows are created concurrently.
func TestTenantLedgerConcurrent(t *testing.T) {
	l := newTenantLedger()
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				account(l, fmt.Sprintf("t%d", i%16), "ok", "miss", &request{solved: true, solveSeconds: 0.001, bitOps: 10})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := l.dump().Validate(); err != nil {
				t.Errorf("mid-write dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := l.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	var requests, solves int64
	for _, r := range d.Tenants {
		requests += r.Requests
		solves += r.Solves
	}
	if want := int64(goroutines * perG); requests != want || solves != want {
		t.Errorf("requests/solves = %d/%d, want %d each (lost updates)", requests, solves, want)
	}
}

// TestRegisterTenantFamiliesExposition checks the rootd_tenant_*
// families read the server's ledger at scrape time, and that a newer
// server on the same hub takes them over without duplicating them.
func TestRegisterTenantFamiliesExposition(t *testing.T) {
	hub := telemetry.New(telemetry.Config{})
	s := New(Config{Telemetry: hub})
	account(s.tenants, "acme", "ok", "miss", &request{solved: true, solveSeconds: 0.25, bitOps: 1234})
	account(s.tenants, "beta", "ok", "hit", nil)

	scrape := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := hub.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateExposition(buf.Bytes()); err != nil {
			t.Fatalf("exposition with tenant families invalid: %v\n%s", err, buf.String())
		}
		return buf.String()
	}
	body := scrape()
	for _, want := range []string{
		`rootd_tenant_requests_total{tenant="acme"} 1`,
		`rootd_tenant_bit_ops_total{tenant="acme"} 1234`,
		`rootd_tenant_solve_seconds_total{tenant="acme"} 0.25`,
		`rootd_tenant_cache_hits_total{tenant="beta"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A second server on the hub rebinds the families to its ledger.
	s2 := New(Config{Telemetry: hub})
	account(s2.tenants, "gamma", "ok", "miss", nil)
	body = scrape()
	if got := strings.Count(body, "# TYPE rootd_tenant_requests_total"); got != 1 {
		t.Errorf("rootd_tenant_requests_total TYPE line appears %d times, want 1", got)
	}
	if !strings.Contains(body, `rootd_tenant_requests_total{tenant="gamma"} 1`) || strings.Contains(body, `tenant="acme"`) {
		t.Errorf("tenant families do not follow the newest server:\n%s", body)
	}
}
