package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTenantLedgerAccounting(t *testing.T) {
	l := NewTenantLedger(8)
	l.AddRequest("acme")
	l.AddRequest("acme")
	l.AddSolve("acme", 0.5, 1000)
	l.AddCacheHit("acme")
	l.AddRejection("acme")
	l.AddError("acme")
	l.AddRetainedTrace("acme")
	l.AddRequest("") // anonymous

	d := l.Dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]TenantRow{}
	for _, r := range d.Tenants {
		rows[r.Tenant] = r
	}
	acme := rows["acme"]
	if acme.Requests != 2 || acme.Solves != 1 || acme.SolveSeconds != 0.5 ||
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
	l := NewTenantLedger(2)
	l.AddRequest("a")
	l.AddRequest("b")
	l.AddRequest("c") // over the cap: folds into "other"
	l.AddRequest("d")
	l.AddRequest("")  // anonymous does not count against the cap
	l.AddRequest("a") // existing row still resolves directly

	d := l.Dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range d.Tenants {
		got[r.Tenant] = r.Requests
	}
	want := map[string]int64{"a": 2, "b": 1, OverflowTenant: 2, AnonymousTenant: 1}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("row %q = %d requests, want %d", k, got[k], v)
		}
	}
}

// TestTenantLedgerRowName: the lookup names the row a tenant is
// accounted in and never adds one.
func TestTenantLedgerRowName(t *testing.T) {
	l := NewTenantLedger(1)
	if got := l.RowName("a"); got != OverflowTenant {
		t.Errorf("RowName before any accounting = %q, want %q", got, OverflowTenant)
	}
	if n := len(l.Dump().Tenants); n != 0 {
		t.Fatalf("RowName added %d rows", n)
	}
	l.AddRequest("a")
	l.AddRequest("b") // over the cap
	for tenant, want := range map[string]string{"a": "a", "b": OverflowTenant, "": AnonymousTenant} {
		if got := l.RowName(tenant); got != want {
			t.Errorf("RowName(%q) = %q, want %q", tenant, got, want)
		}
	}
	if n := len(l.Dump().Tenants); n != 2 {
		t.Errorf("ledger has %d rows, want a and other", n)
	}
	if got := (*TenantLedger)(nil).RowName("a"); got != OverflowTenant {
		t.Errorf("nil ledger RowName = %q", got)
	}
}

func TestTenantLedgerNilSafe(t *testing.T) {
	var l *TenantLedger
	l.AddRequest("a")
	l.AddSolve("a", 1, 1)
	l.AddCacheHit("a")
	l.AddRejection("a")
	l.AddError("a")
	l.AddRetainedTrace("a")
	d := l.Dump()
	if len(d.Tenants) != 0 {
		t.Errorf("nil ledger dumped rows: %+v", d.Tenants)
	}
}

// TestTenantLedgerConcurrent hammers row creation and accounting from
// many goroutines (run with -race): the copy-on-write map must not lose
// updates when rows are created concurrently.
func TestTenantLedgerConcurrent(t *testing.T) {
	l := NewTenantLedger(64)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tenant := fmt.Sprintf("t%d", i%16)
				l.AddRequest(tenant)
				l.AddSolve(tenant, 0.001, 10)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := l.Dump().Validate(); err != nil {
				t.Errorf("mid-write dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := l.Dump()
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

func TestRegisterTenantFamiliesExposition(t *testing.T) {
	tel := New(Config{})
	l := tel.Tenants()
	l.AddRequest("acme")
	l.AddSolve("acme", 0.25, 1234)
	l.AddCacheHit("beta")
	l.AddRequest("beta")
	tel.Registry().RegisterTenantFamilies(l)

	var buf bytes.Buffer
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition with tenant families invalid: %v\n%s", err, body)
	}
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
	// Registering twice must not duplicate families (register is
	// idempotent by name).
	tel.Registry().RegisterTenantFamilies(l)
	buf.Reset()
	if err := tel.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "# TYPE rootd_tenant_requests_total"); got != 1 {
		t.Errorf("rootd_tenant_requests_total TYPE line appears %d times, want 1", got)
	}
}
