package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Per-tenant usage ledger. rootd already labels its latency histograms
// by tenant; the ledger is the complementary integral view — who has
// consumed how much arithmetic, how often they hit the cache, how
// often admission pushed back — kept with the same copy-on-write
// discipline as HistogramVec so the per-solve accounting path is
// lock-free once a tenant's row exists.

// TenantsSchema versions the /debug/tenants JSON dump.
const TenantsSchema = "realroots/tenants/v1"

// MaxTenants bounds the hub ledger's row count; tenants beyond the cap
// are folded into the OverflowTenant row so a tenant-ID cardinality
// attack cannot grow the ledger, or rootd's per-tenant label series,
// which are named after its rows.
const MaxTenants = 64

// Ledger row names for the two synthetic tenants.
const (
	// AnonymousTenant accounts requests that carried no tenant ID.
	AnonymousTenant = "anonymous"
	// OverflowTenant accounts tenants beyond the ledger cap.
	OverflowTenant = "other"
)

// TenantUsage is one tenant's accumulated usage. All fields are
// atomics; rows are shared by reference and never replaced.
type TenantUsage struct {
	requests     atomic.Int64
	solves       atomic.Int64
	solveSeconds Float64
	bitOps       atomic.Int64
	cacheHits    atomic.Int64
	rejections   atomic.Int64
	errors       atomic.Int64
	retained     atomic.Int64
}

// TenantRow is the serialized form of one ledger row.
type TenantRow struct {
	Tenant string `json:"tenant"`
	// Requests counts every admitted-or-not request attributed to the
	// tenant (the denominator for the rejection rate).
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

// row snapshots the usage counters.
func (u *TenantUsage) row(tenant string) TenantRow {
	return TenantRow{
		Tenant:         tenant,
		Requests:       u.requests.Load(),
		Solves:         u.solves.Load(),
		SolveSeconds:   u.solveSeconds.Load(),
		BitOps:         u.bitOps.Load(),
		CacheHits:      u.cacheHits.Load(),
		Rejections:     u.rejections.Load(),
		Errors:         u.errors.Load(),
		RetainedTraces: u.retained.Load(),
	}
}

// TenantLedger maps tenant IDs to usage rows. Row lookup is a
// copy-on-write map read (lock-free after first use, like
// HistogramVec.With); all accounting methods are nil-safe no-ops.
type TenantLedger struct {
	maxTenants int

	mu   sync.Mutex
	rows atomic.Pointer[map[string]*TenantUsage]
}

// NewTenantLedger creates a ledger holding at most maxTenants rows
// (<= 0 selects MaxTenants). The synthetic anonymous/overflow rows do
// not count against the cap.
func NewTenantLedger(maxTenants int) *TenantLedger {
	if maxTenants <= 0 {
		maxTenants = MaxTenants
	}
	l := &TenantLedger{maxTenants: maxTenants}
	empty := map[string]*TenantUsage{}
	l.rows.Store(&empty)
	return l
}

// usage returns the row for tenant, creating it on first use. "" maps
// to AnonymousTenant; tenants beyond the cap map to OverflowTenant.
func (l *TenantLedger) usage(tenant string) *TenantUsage {
	if l == nil {
		return nil
	}
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if u := (*l.rows.Load())[tenant]; u != nil {
		return u
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := *l.rows.Load()
	if u := cur[tenant]; u != nil {
		return u
	}
	// Count only real tenant rows against the cap.
	real_ := 0
	for k := range cur {
		if k != AnonymousTenant && k != OverflowTenant {
			real_++
		}
	}
	if tenant != AnonymousTenant && tenant != OverflowTenant && real_ >= l.maxTenants {
		tenant = OverflowTenant
		if u := cur[tenant]; u != nil {
			return u
		}
	}
	next := make(map[string]*TenantUsage, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	u := &TenantUsage{}
	next[tenant] = u
	l.rows.Store(&next)
	return u
}

// RowName returns the name of the row that accounts tenant, without
// adding one: AnonymousTenant for "", the tenant itself once it has a
// row, and OverflowTenant otherwise (the cap folded it, or it has not
// been accounted yet).
func (l *TenantLedger) RowName(tenant string) string {
	if tenant == "" {
		return AnonymousTenant
	}
	if l != nil && (*l.rows.Load())[tenant] != nil {
		return tenant
	}
	return OverflowTenant
}

// AddRequest accounts one incoming request.
func (l *TenantLedger) AddRequest(tenant string) {
	if u := l.usage(tenant); u != nil {
		u.requests.Add(1)
	}
}

// AddSolve accounts one completed solve the tenant led: its wall time
// and measured bit-operation cost.
func (l *TenantLedger) AddSolve(tenant string, seconds float64, bitOps int64) {
	if u := l.usage(tenant); u != nil {
		u.solves.Add(1)
		u.solveSeconds.Add(seconds)
		u.bitOps.Add(bitOps)
	}
}

// AddCacheHit accounts one request served from the result cache.
func (l *TenantLedger) AddCacheHit(tenant string) {
	if u := l.usage(tenant); u != nil {
		u.cacheHits.Add(1)
	}
}

// AddRejection accounts one request refused by admission control.
func (l *TenantLedger) AddRejection(tenant string) {
	if u := l.usage(tenant); u != nil {
		u.rejections.Add(1)
	}
}

// AddError accounts one request that failed for a non-admission
// reason.
func (l *TenantLedger) AddError(tenant string) {
	if u := l.usage(tenant); u != nil {
		u.errors.Add(1)
	}
}

// AddRetainedTrace accounts one of the tenant's solves being kept by
// the tail sampler.
func (l *TenantLedger) AddRetainedTrace(tenant string) {
	if u := l.usage(tenant); u != nil {
		u.retained.Add(1)
	}
}

// TenantsDump is the schema-versioned JSON served at /debug/tenants.
type TenantsDump struct {
	Schema     string      `json:"schema"`
	MaxTenants int         `json:"maxTenants"`
	Tenants    []TenantRow `json:"tenants"`
}

// Dump snapshots the ledger, rows sorted by tenant ID.
func (l *TenantLedger) Dump() TenantsDump {
	d := TenantsDump{Schema: TenantsSchema}
	if l == nil {
		return d
	}
	d.MaxTenants = l.maxTenants
	cur := *l.rows.Load()
	d.Tenants = make([]TenantRow, 0, len(cur))
	for tenant, u := range cur {
		d.Tenants = append(d.Tenants, u.row(tenant))
	}
	sort.Slice(d.Tenants, func(i, j int) bool { return d.Tenants[i].Tenant < d.Tenants[j].Tenant })
	return d
}

// Validate checks the dump's structural invariants: schema string,
// rows sorted and unique, non-negative counters, and cache hits +
// rejections not exceeding the request count (solves can exceed it
// transiently only if accounting is wrong, so that is checked too).
func (d TenantsDump) Validate() error {
	if d.Schema != TenantsSchema {
		return fmt.Errorf("telemetry: tenants dump schema %q, want %q", d.Schema, TenantsSchema)
	}
	if d.MaxTenants <= 0 {
		return fmt.Errorf("telemetry: tenants dump maxTenants %d not positive", d.MaxTenants)
	}
	for i, r := range d.Tenants {
		if r.Tenant == "" {
			return fmt.Errorf("telemetry: tenant row %d has empty tenant ID", i)
		}
		if i > 0 && d.Tenants[i-1].Tenant >= r.Tenant {
			return fmt.Errorf("telemetry: tenant rows not sorted/unique at %q", r.Tenant)
		}
		if r.Requests < 0 || r.Solves < 0 || r.BitOps < 0 || r.CacheHits < 0 ||
			r.Rejections < 0 || r.Errors < 0 || r.RetainedTraces < 0 || r.SolveSeconds < 0 {
			return fmt.Errorf("telemetry: tenant %q has a negative counter", r.Tenant)
		}
		if r.CacheHits+r.Rejections > r.Requests {
			return fmt.Errorf("telemetry: tenant %q accounts %d cache hits + %d rejections for only %d requests",
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
		return fmt.Errorf("telemetry: invalid tenants JSON: %w", err)
	}
	return d.Validate()
}

// RegisterTenantFamilies registers the rootd_tenant_* exposition
// families, each a counter over the dynamic tenant label reading the
// ledger at scrape time. Safe to call once per ledger per registry.
func (g *Registry) RegisterTenantFamilies(l *TenantLedger) {
	if g == nil || l == nil {
		return
	}
	intFam := func(name, help string, get func(*TenantUsage) int64) {
		g.families.register(name, help, "counter", l, func(e *expoWriter) {
			for _, t := range sortedTenants(l) {
				e.sampleInt(name, get(t.u), "tenant", t.name)
			}
		})
	}
	intFam("rootd_tenant_requests_total", "Requests received per tenant.",
		func(u *TenantUsage) int64 { return u.requests.Load() })
	intFam("rootd_tenant_solves_total", "Solves led per tenant (cache misses).",
		func(u *TenantUsage) int64 { return u.solves.Load() })
	intFam("rootd_tenant_bit_ops_total", "Measured solve bit operations per tenant.",
		func(u *TenantUsage) int64 { return u.bitOps.Load() })
	intFam("rootd_tenant_cache_hits_total", "Requests served from the result cache per tenant.",
		func(u *TenantUsage) int64 { return u.cacheHits.Load() })
	intFam("rootd_tenant_rejections_total", "Requests refused by admission control per tenant.",
		func(u *TenantUsage) int64 { return u.rejections.Load() })
	intFam("rootd_tenant_retained_traces_total", "Solves retained by the tail sampler per tenant.",
		func(u *TenantUsage) int64 { return u.retained.Load() })
	g.families.register("rootd_tenant_solve_seconds_total",
		"Summed solve wall seconds per tenant.", "counter", l, func(e *expoWriter) {
			for _, t := range sortedTenants(l) {
				e.sampleFloat("rootd_tenant_solve_seconds_total", t.u.solveSeconds.Load(), "tenant", t.name)
			}
		})
}

// sortedTenants snapshots the ledger rows sorted by tenant name, for
// deterministic exposition order.
func sortedTenants(l *TenantLedger) []struct {
	name string
	u    *TenantUsage
} {
	cur := *l.rows.Load()
	out := make([]struct {
		name string
		u    *TenantUsage
	}, 0, len(cur))
	for name, u := range cur {
		out = append(out, struct {
			name string
			u    *TenantUsage
		}{name, u})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
