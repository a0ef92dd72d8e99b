package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// The /debug/requests inspector. A request is one record from the
// moment handleSolve or Solve sees it until finish closes it; the
// inspector lists the records in flight and a ring of the newest
// finished rows, and the tenant ledger, the request metrics and the
// request log are all written from the same finished record.

// RequestsSchema identifies the JSON shape of a /debug/requests dump.
const RequestsSchema = "realroots/requests/v1"

// requestRingCapacity bounds the finished rows /debug/requests keeps:
// enough to cover a burst while keeping the dump small.
const requestRingCapacity = 128

// RequestSnapshot is the JSON form of one request's row, active or
// finished. CostRatio is actual/estimated bit-ops (0 until both are
// known) — the "is the paper's cost model honest on this input" number.
type RequestSnapshot struct {
	ID              string  `json:"id"`
	Tenant          string  `json:"tenant"`
	Kind            string  `json:"kind"`
	Method          string  `json:"method,omitempty"`
	Profile         string  `json:"profile,omitempty"`
	Degree          int     `json:"degree"`
	Mu              uint    `json:"mu"`
	EstimatedBitOps int64   `json:"estimatedBitOps"`
	ActualBitOps    int64   `json:"actualBitOps"`
	CostRatio       float64 `json:"costRatio"`
	PeakOperandBits int     `json:"peakOperandBits"`
	CacheOutcome    string  `json:"cacheOutcome,omitempty"` // hit, join, miss
	QueueWaitSecs   float64 `json:"queueWaitSeconds"`
	SolveSecs       float64 `json:"solveSeconds"`
	TotalSecs       float64 `json:"totalSeconds"`    // since the request arrived
	Phase           string  `json:"phase,omitempty"` // last pipeline phase seen
	// PhaseSeconds is the wall time of each pipeline phase of the solve
	// this request led, in pipeline order, from the solve's trace. It
	// is absent when the request hit the cache, joined another
	// request's solve, or was served untraced.
	PhaseSeconds []PhaseTime `json:"phaseSeconds,omitempty"`
	Outcome      string      `json:"outcome,omitempty"`
	Active       bool        `json:"active"`
}

// PhaseTime is one pipeline phase's wall time in seconds.
type PhaseTime struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// request is one request's record. Its row is what /debug/requests
// shows; dumps read it while the request is in flight, so it is
// written under mu. The leader's solve facts are written by
// observeSolve and read by finish, both on the request's own
// goroutine.
type request struct {
	start time.Time

	mu  sync.Mutex
	row RequestSnapshot

	solved       bool    // the request led a solve that held a slot
	solveSeconds float64 // that solve's wall time
	bitOps       int64   // and its measured bit operations
	retained     bool    // the tail sampler kept the solve's trace
}

// update writes the row under the record's lock.
func (r *request) update(f func(row *RequestSnapshot)) {
	r.mu.Lock()
	f(&r.row)
	r.mu.Unlock()
}

// setPhase records the pipeline phase the request's solve is in.
func (r *request) setPhase(phase string) {
	r.update(func(row *RequestSnapshot) { row.Phase = phase })
}

// ring holds the newest cap(buf) values pushed, evicting the oldest.
type ring[T any] struct {
	buf  []T
	next int // the oldest value's slot once buf is full
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, 0, capacity)}
}

// push adds v, evicting the oldest value when the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// newestFirst returns the held values, newest first (nil when empty).
func (r *ring[T]) newestFirst() []T {
	var out []T
	for i := range r.buf {
		out = append(out, r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)])
	}
	return out
}

// requestLog is the inspector's state: the records in flight and the
// ring of finished rows.
type requestLog struct {
	mu     sync.Mutex
	active map[*request]struct{}
	recent ring[RequestSnapshot]
	total  uint64
}

func newRequestLog() *requestLog {
	return &requestLog{active: map[*request]struct{}{}, recent: newRing[RequestSnapshot](requestRingCapacity)}
}

// begin opens the record of a request arriving now.
func (l *requestLog) begin(id string) *request {
	r := &request{start: time.Now(), row: RequestSnapshot{ID: id, Kind: "solve", Active: true}}
	l.mu.Lock()
	l.active[r] = struct{}{}
	l.total++
	l.mu.Unlock()
	return r
}

// finish closes r's row with its outcome and, for an answered request,
// the numbers of the solve that produced the answer, and moves the row
// into the ring. It returns the closed row.
func (l *requestLog) finish(r *request, outcome string, elapsed time.Duration, resp *SolveResponse) RequestSnapshot {
	r.mu.Lock()
	row := &r.row
	row.Outcome = outcome
	row.TotalSecs = elapsed.Seconds()
	row.Active = false
	if resp != nil && resp.Metrics != nil {
		// For cache hits and joins these are the original solve's
		// numbers: the cost-model verdict belongs to the result, not to
		// the request that happened to ask first.
		row.SolveSecs = resp.ElapsedSeconds
		row.ActualBitOps = resp.BitOps
		row.PeakOperandBits = resp.Metrics.PeakBits()
		if row.EstimatedBitOps > 0 && resp.BitOps > 0 {
			row.CostRatio = float64(resp.BitOps) / float64(row.EstimatedBitOps)
		}
	}
	snap := *row
	r.mu.Unlock()

	l.mu.Lock()
	delete(l.active, r)
	l.recent.push(snap)
	l.mu.Unlock()
	return snap
}

// RequestsDump is the JSON document served by /debug/requests: the
// in-flight set plus the finished ring, newest first.
type RequestsDump struct {
	Schema   string            `json:"schema"`
	Capacity int               `json:"capacity"`
	Total    uint64            `json:"total"`
	Active   []RequestSnapshot `json:"active"`
	Recent   []RequestSnapshot `json:"recent"`
}

// dump snapshots the inspector: active rows oldest first, finished
// ones newest first.
func (l *requestLog) dump() *RequestsDump {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := &RequestsDump{Schema: RequestsSchema, Capacity: cap(l.recent.buf), Total: l.total}
	for r := range l.active {
		r.mu.Lock()
		snap := r.row
		snap.TotalSecs = time.Since(r.start).Seconds()
		r.mu.Unlock()
		d.Active = append(d.Active, snap)
	}
	sort.Slice(d.Active, func(i, j int) bool { return d.Active[i].TotalSecs > d.Active[j].TotalSecs })
	d.Recent = l.recent.newestFirst()
	return d
}

// Validate checks a dump's structural invariants.
func (d *RequestsDump) Validate() error {
	if d.Schema != RequestsSchema {
		return fmt.Errorf("requests: schema %q, want %q", d.Schema, RequestsSchema)
	}
	if d.Capacity < 0 || len(d.Recent) > d.Capacity {
		return fmt.Errorf("requests: %d recent entries exceed capacity %d", len(d.Recent), d.Capacity)
	}
	if n := uint64(len(d.Active) + len(d.Recent)); d.Total < uint64(len(d.Active)) || (d.Total < n && len(d.Recent) < d.Capacity) {
		return fmt.Errorf("requests: total %d inconsistent with %d active + %d recent", d.Total, len(d.Active), len(d.Recent))
	}
	for i, r := range d.Active {
		if !r.Active {
			return fmt.Errorf("requests: active[%d] (%s) not marked active", i, r.ID)
		}
		if err := validatePhases(r); err != nil {
			return fmt.Errorf("requests: active[%d] %w", i, err)
		}
	}
	for i, r := range d.Recent {
		if r.Active {
			return fmt.Errorf("requests: recent[%d] (%s) still marked active", i, r.ID)
		}
		if r.Outcome == "" {
			return fmt.Errorf("requests: recent[%d] (%s) has no outcome", i, r.ID)
		}
		if r.TotalSecs < 0 || r.QueueWaitSecs < 0 || r.SolveSecs < 0 {
			return fmt.Errorf("requests: recent[%d] (%s) has negative timing", i, r.ID)
		}
		if err := validatePhases(r); err != nil {
			return fmt.Errorf("requests: recent[%d] %w", i, err)
		}
	}
	return nil
}

// validatePhases checks that every phase of a row is named and timed.
func validatePhases(r RequestSnapshot) error {
	for _, ph := range r.PhaseSeconds {
		if ph.Name == "" || ph.Seconds < 0 {
			return fmt.Errorf("(%s) has phase %q with %v seconds", r.ID, ph.Name, ph.Seconds)
		}
	}
	return nil
}

// ValidateRequestsJSON parses and validates a /debug/requests JSON
// document, returning the dump on success.
func ValidateRequestsJSON(data []byte) (*RequestsDump, error) {
	var d RequestsDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("requests: parse: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
