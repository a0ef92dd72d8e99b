package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"realroots/internal/trace"
)

// RequestsSchema identifies the JSON shape of a /debug/requests dump.
const RequestsSchema = "realroots/requests/v1"

// DefaultRequestRingCapacity bounds the completed-request ring kept for
// /debug/requests. 128 recent requests is enough to cover a burst while
// keeping the dump small.
const DefaultRequestRingCapacity = 128

// RequestInfo describes one request as it enters the tracker.
type RequestInfo struct {
	ID              string
	Tenant          string
	Kind            string // "solve" for rootd requests
	Method          string
	Profile         string
	Degree          int
	Mu              uint
	EstimatedBitOps int64
}

// RequestSnapshot is the JSON form of one tracked request, active or
// completed. CostRatio is actual/estimated bit-ops (0 until both are
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
	TotalSecs       float64 `json:"totalSeconds"`
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

// ActiveRequest is the tracker's handle for one in-flight request.
// Methods are safe for concurrent use and no-op on a nil receiver.
type ActiveRequest struct {
	tracker *RequestTracker
	start   time.Time

	mu   sync.Mutex
	snap RequestSnapshot
}

// RequestTracker keeps the set of in-flight requests plus a bounded
// ring of the most recently completed ones, for /debug/requests.
type RequestTracker struct {
	mu     sync.Mutex
	active map[*ActiveRequest]struct{}
	recent []RequestSnapshot // ring, next is the write cursor
	next   int
	filled bool
	total  uint64
}

// NewRequestTracker creates a tracker holding up to capacity completed
// requests (DefaultRequestRingCapacity if capacity <= 0).
func NewRequestTracker(capacity int) *RequestTracker {
	if capacity <= 0 {
		capacity = DefaultRequestRingCapacity
	}
	return &RequestTracker{
		active: make(map[*ActiveRequest]struct{}),
		recent: make([]RequestSnapshot, capacity),
	}
}

// Start registers an in-flight request and returns its handle. A nil
// tracker returns a nil handle, whose methods all no-op.
func (t *RequestTracker) Start(info RequestInfo) *ActiveRequest {
	if t == nil {
		return nil
	}
	r := &ActiveRequest{
		tracker: t,
		start:   time.Now(),
		snap: RequestSnapshot{
			ID:              info.ID,
			Tenant:          info.Tenant,
			Kind:            info.Kind,
			Method:          info.Method,
			Profile:         info.Profile,
			Degree:          info.Degree,
			Mu:              info.Mu,
			EstimatedBitOps: info.EstimatedBitOps,
			Active:          true,
		},
	}
	t.mu.Lock()
	t.active[r] = struct{}{}
	t.total++
	t.mu.Unlock()
	return r
}

// SetPhase records the pipeline phase the request is currently in.
func (r *ActiveRequest) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.Phase = phase
	r.mu.Unlock()
}

// SetPhaseSeconds records the per-phase wall times of the solve the
// request led (trace.Summary.Phases).
func (r *ActiveRequest) SetPhaseSeconds(phases []trace.NamedTime) {
	if r == nil {
		return
	}
	pt := make([]PhaseTime, len(phases))
	for i, ph := range phases {
		pt[i] = PhaseTime{Name: ph.Name, Seconds: ph.Wall.Seconds()}
	}
	r.mu.Lock()
	r.snap.PhaseSeconds = pt
	r.mu.Unlock()
}

// SetCacheOutcome records how the single-flight result cache resolved
// the request: "hit", "join", or "miss".
func (r *ActiveRequest) SetCacheOutcome(outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.CacheOutcome = outcome
	r.mu.Unlock()
}

// SetQueueWait records time spent waiting for an admission slot.
func (r *ActiveRequest) SetQueueWait(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.QueueWaitSecs = d.Seconds()
	r.mu.Unlock()
}

// SetSolve records the solve outcome numbers: core time, measured
// bit-ops (updating the model-vs-measured cost ratio), and the peak
// operand bit-length seen by the arithmetic instrumentation.
func (r *ActiveRequest) SetSolve(d time.Duration, actualBitOps int64, peakBits int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.SolveSecs = d.Seconds()
	r.snap.ActualBitOps = actualBitOps
	r.snap.PeakOperandBits = peakBits
	if r.snap.EstimatedBitOps > 0 && actualBitOps > 0 {
		r.snap.CostRatio = float64(actualBitOps) / float64(r.snap.EstimatedBitOps)
	}
	r.mu.Unlock()
}

// Finish moves the request from the active set into the completed
// ring, stamping its outcome and total latency. Safe to call once.
func (r *ActiveRequest) Finish(outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.snap.Outcome = outcome
	r.snap.TotalSecs = time.Since(r.start).Seconds()
	r.snap.Active = false
	snap := r.snap
	r.mu.Unlock()

	t := r.tracker
	t.mu.Lock()
	delete(t.active, r)
	t.recent[t.next] = snap
	t.next++
	if t.next == len(t.recent) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()
}

// RequestsDump is the JSON document served by /debug/requests: the
// in-flight set plus the completed ring, newest first.
type RequestsDump struct {
	Schema   string            `json:"schema"`
	Capacity int               `json:"capacity"`
	Total    uint64            `json:"total"`
	Active   []RequestSnapshot `json:"active"`
	Recent   []RequestSnapshot `json:"recent"`
}

// Dump snapshots the tracker. Active requests are ordered oldest
// first; recent ones newest first. A nil tracker dumps empty.
func (t *RequestTracker) Dump() *RequestsDump {
	d := &RequestsDump{Schema: RequestsSchema}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d.Capacity = len(t.recent)
	d.Total = t.total
	for r := range t.active {
		r.mu.Lock()
		snap := r.snap
		snap.TotalSecs = time.Since(r.start).Seconds()
		r.mu.Unlock()
		d.Active = append(d.Active, snap)
	}
	// Map iteration is unordered; sort oldest first by elapsed time.
	for i := 1; i < len(d.Active); i++ {
		for j := i; j > 0 && d.Active[j].TotalSecs > d.Active[j-1].TotalSecs; j-- {
			d.Active[j], d.Active[j-1] = d.Active[j-1], d.Active[j]
		}
	}
	n := t.next
	if t.filled {
		n = len(t.recent)
	}
	for i := 0; i < n; i++ {
		// Walk backwards from the cursor: newest first.
		idx := (t.next - 1 - i + len(t.recent)) % len(t.recent)
		d.Recent = append(d.Recent, t.recent[idx])
	}
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
