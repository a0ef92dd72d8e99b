package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"realroots/internal/telemetry"
)

// The per-tenant usage ledger behind /debug/tenants and the
// rootd_tenant_* families. rootd labels its latency histograms by
// tenant; the ledger is the complementary integral view — who has
// consumed how much arithmetic, how often they hit the cache, how
// often admission pushed back. It is a fold of finished request
// records: finish hands every record to fold once, so the ledger
// counts exactly the requests the inspector lists. Row lookup is a
// copy-on-write map read, lock-free once a tenant's row exists.

// TenantsSchema versions the /debug/tenants JSON dump.
const TenantsSchema = "realroots/tenants/v1"

// MaxTenants bounds the ledger's row count; tenants beyond the cap are
// folded into the OverflowTenant row so a tenant-ID cardinality attack
// cannot grow the ledger, or rootd's per-tenant label series, which
// are named after its rows.
const MaxTenants = 64

// Ledger row names for the two synthetic tenants.
const (
	// AnonymousTenant accounts requests that carried no tenant ID,
	// including requests refused before their body decoded.
	AnonymousTenant = "anonymous"
	// OverflowTenant accounts tenants beyond the ledger cap.
	OverflowTenant = "other"
)

// tenantUsage is one tenant's accumulated usage. Rows are shared by
// reference and never replaced.
type tenantUsage struct {
	requests     atomic.Int64
	solves       atomic.Int64
	solveSeconds telemetry.Float64
	bitOps       atomic.Int64
	cacheHits    atomic.Int64
	rejections   atomic.Int64
	errors       atomic.Int64
	retained     atomic.Int64
}

// TenantRow is the serialized form of one ledger row.
type TenantRow struct {
	Tenant string `json:"tenant"`
	// Requests counts every request attributed to the tenant, refused
	// or not (the denominator for the rejection rate).
	Requests int64 `json:"requests"`
	// Solves counts solves the tenant actually ran (cache misses where
	// this tenant was the single-flight leader).
	Solves int64 `json:"solves"`
	// SolveSeconds is the summed wall time of those solves.
	SolveSeconds float64 `json:"solveSeconds"`
	// BitOps is the summed measured bit-operation cost of those solves.
	BitOps int64 `json:"bitOps"`
	// CacheHits counts requests served from the result cache (including
	// single-flight joins).
	CacheHits int64 `json:"cacheHits"`
	// Rejections counts requests refused by admission control (rate
	// limit, overload, queue full, draining).
	Rejections int64 `json:"rejections"`
	// Errors counts requests that failed for non-admission reasons.
	Errors int64 `json:"errors"`
	// RetainedTraces counts the tenant's solves the tail sampler kept.
	RetainedTraces int64 `json:"retainedTraces"`
}

// tenantLedger maps tenant row names to usage rows.
type tenantLedger struct {
	mu    sync.Mutex
	rows  atomic.Pointer[map[string]*tenantUsage]
	named int // rows of real tenants, which count against MaxTenants
}

func newTenantLedger() *tenantLedger {
	l := &tenantLedger{}
	l.rows.Store(&map[string]*tenantUsage{})
	return l
}

// usage returns the row accounting tenant and its name, creating the
// row on first use: "" maps to AnonymousTenant, and tenants beyond the
// cap map to OverflowTenant.
func (l *tenantLedger) usage(tenant string) (string, *tenantUsage) {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if u := (*l.rows.Load())[tenant]; u != nil {
		return tenant, u
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := *l.rows.Load()
	if u := cur[tenant]; u != nil {
		return tenant, u
	}
	switch {
	case tenant == AnonymousTenant || tenant == OverflowTenant:
	case l.named < MaxTenants:
		l.named++
	default:
		tenant = OverflowTenant
		if u := cur[tenant]; u != nil {
			return tenant, u
		}
	}
	next := make(map[string]*tenantUsage, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	u := &tenantUsage{}
	next[tenant] = u
	l.rows.Store(&next)
	return tenant, u
}

// fold accounts one finished request to its tenant's row and returns
// the row's name, which labels the request's per-tenant series.
func (l *tenantLedger) fold(rec *request, row RequestSnapshot) string {
	name, u := l.usage(row.Tenant)
	u.requests.Add(1)
	if rec.solved {
		// The leader's solve is charged even when it failed: the wall
		// time and bit ops were spent either way.
		u.solves.Add(1)
		u.solveSeconds.Add(rec.solveSeconds)
		u.bitOps.Add(rec.bitOps)
	}
	if rec.retained {
		u.retained.Add(1)
	}
	switch row.Outcome {
	case "ok":
		if row.CacheOutcome != "miss" {
			u.cacheHits.Add(1)
		}
	case CodeRateLimited, CodeOverloaded, CodeQueueFull, CodeDraining:
		u.rejections.Add(1)
	default:
		u.errors.Add(1)
	}
	return name
}

// TenantsDump is the schema-versioned JSON served at /debug/tenants.
type TenantsDump struct {
	Schema     string      `json:"schema"`
	MaxTenants int         `json:"maxTenants"`
	Tenants    []TenantRow `json:"tenants"`
}

// dump snapshots the ledger, rows sorted by tenant.
func (l *tenantLedger) dump() TenantsDump {
	cur := *l.rows.Load()
	d := TenantsDump{Schema: TenantsSchema, MaxTenants: MaxTenants, Tenants: make([]TenantRow, 0, len(cur))}
	for tenant, u := range cur {
		d.Tenants = append(d.Tenants, TenantRow{
			Tenant:         tenant,
			Requests:       u.requests.Load(),
			Solves:         u.solves.Load(),
			SolveSeconds:   u.solveSeconds.Load(),
			BitOps:         u.bitOps.Load(),
			CacheHits:      u.cacheHits.Load(),
			Rejections:     u.rejections.Load(),
			Errors:         u.errors.Load(),
			RetainedTraces: u.retained.Load(),
		})
	}
	sort.Slice(d.Tenants, func(i, j int) bool { return d.Tenants[i].Tenant < d.Tenants[j].Tenant })
	return d
}

// registerFamilies registers the rootd_tenant_* families, each a
// counter over the tenant label read from the ledger at scrape time.
// A newer server on the same hub rebinds them to its own ledger.
func (l *tenantLedger) registerFamilies(reg *telemetry.Registry) {
	for _, f := range []struct {
		name, help string
		get        func(TenantRow) int64
	}{
		{"rootd_tenant_requests_total", "Requests received per tenant.",
			func(r TenantRow) int64 { return r.Requests }},
		{"rootd_tenant_solves_total", "Solves led per tenant (cache misses).",
			func(r TenantRow) int64 { return r.Solves }},
		{"rootd_tenant_bit_ops_total", "Measured solve bit operations per tenant.",
			func(r TenantRow) int64 { return r.BitOps }},
		{"rootd_tenant_cache_hits_total", "Requests served from the result cache per tenant.",
			func(r TenantRow) int64 { return r.CacheHits }},
		{"rootd_tenant_rejections_total", "Requests refused by admission control per tenant.",
			func(r TenantRow) int64 { return r.Rejections }},
		{"rootd_tenant_retained_traces_total", "Solves retained by the tail sampler per tenant.",
			func(r TenantRow) int64 { return r.RetainedTraces }},
	} {
		telemetry.RegisterCounterFunc(reg, f.name, f.help, "tenant", func(emit func(string, int64)) {
			for _, r := range l.dump().Tenants {
				emit(r.Tenant, f.get(r))
			}
		})
	}
	telemetry.RegisterCounterFunc(reg, "rootd_tenant_solve_seconds_total",
		"Summed solve wall seconds per tenant.", "tenant", func(emit func(string, float64)) {
			for _, r := range l.dump().Tenants {
				emit(r.Tenant, r.SolveSeconds)
			}
		})
}

// Validate checks the dump's structural invariants: schema string,
// rows sorted and unique, non-negative counters, and cache hits +
// rejections not exceeding the request count.
func (d TenantsDump) Validate() error {
	if d.Schema != TenantsSchema {
		return fmt.Errorf("tenants: schema %q, want %q", d.Schema, TenantsSchema)
	}
	if d.MaxTenants <= 0 {
		return fmt.Errorf("tenants: maxTenants %d not positive", d.MaxTenants)
	}
	for i, r := range d.Tenants {
		if r.Tenant == "" {
			return fmt.Errorf("tenants: row %d has empty tenant ID", i)
		}
		if i > 0 && d.Tenants[i-1].Tenant >= r.Tenant {
			return fmt.Errorf("tenants: rows not sorted/unique at %q", r.Tenant)
		}
		if r.Requests < 0 || r.Solves < 0 || r.BitOps < 0 || r.CacheHits < 0 ||
			r.Rejections < 0 || r.Errors < 0 || r.RetainedTraces < 0 || r.SolveSeconds < 0 {
			return fmt.Errorf("tenants: %q has a negative counter", r.Tenant)
		}
		if r.CacheHits+r.Rejections > r.Requests {
			return fmt.Errorf("tenants: %q accounts %d cache hits + %d rejections for only %d requests",
				r.Tenant, r.CacheHits, r.Rejections, r.Requests)
		}
	}
	return nil
}

// ValidateTenantsJSON parses data as a tenants dump and validates it.
// It is the cmd/validatetrace and CI entry point.
func ValidateTenantsJSON(data []byte) error {
	var d TenantsDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("tenants: parse: %w", err)
	}
	return d.Validate()
}
