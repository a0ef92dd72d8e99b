package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// Tail-sampled traces behind /debug/traces. Every solve is traced into
// a bounded tracer; when it completes the sampler decides — with the
// outcome and latency in hand — whether the trace is interesting
// enough to keep, and the store keeps the newest kept ones. This
// inverts head sampling: instead of guessing up front which 1% of
// requests to record, record everything cheaply and keep only the
// tail an operator would actually open.

// StoreSchema versions the /debug/traces JSON dump. Bump on
// incompatible changes to StoreDump or RetainedTrace.
const StoreSchema = "realroots/trace-store/v1"

// traceRingCapacity bounds the retained traces: enough history to hold
// a burst of failures, each entry pinning one bounded tracer.
const traceRingCapacity = 64

// Retention reasons recorded on a RetainedTrace. The sampler decides
// which applies; the store only counts them.
const (
	ReasonForced = "forced" // X-Debug-Trace header
	ReasonError  = "error"  // error / panic / budget-exceeded outcome
	ReasonSlow   = "slow"   // latency above the rolling quantile
)

// A RetainedTrace is one solve's trace the tail sampler decided to
// keep, with enough derived metadata to triage it from the index page
// without opening the Chrome export.
type RetainedTrace struct {
	// Seq is the store-assigned retention sequence number (monotonic,
	// never reused); it addresses the trace's Chrome export download.
	Seq uint64 `json:"seq"`
	// RequestID is the solve's end-to-end request ID.
	RequestID string `json:"requestId"`
	// Tenant is the requesting tenant ("" if anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Outcome is the solve outcome ("ok", "error", "budget", …) as the
	// server classified it.
	Outcome string `json:"outcome"`
	// Reason says why the sampler kept this trace (Reason* constants).
	Reason string `json:"reason"`
	// Start is the wall-clock time the solve began.
	Start time.Time `json:"start"`
	// WallSeconds is the solve's measured wall time in seconds.
	WallSeconds float64 `json:"wallSeconds"`
	// Workers is the scheduler worker count the solve ran with, at
	// least 1.
	Workers int `json:"workers"`
	// Efficiency is the measured parallel efficiency over those workers
	// (Summary.Efficiency, the paper's E_P).
	Efficiency float64 `json:"efficiency"`
	// SerialFraction is the trace's measured Amdahl serial fraction.
	SerialFraction float64 `json:"serialFraction"`
	// Spans and DroppedSpans count recorded and cap-dropped spans.
	Spans        int `json:"spans"`
	DroppedSpans int `json:"droppedSpans"`

	// tracer holds the raw spans for the Chrome export; a dump row is
	// metadata only — the full trace is a separate download.
	tracer *trace.Tracer
}

// WriteChrome writes the retained trace's Chrome trace-event export.
func (rt *RetainedTrace) WriteChrome(w io.Writer) error {
	if rt.tracer == nil {
		return fmt.Errorf("traces: retained trace has no recorded spans")
	}
	return rt.tracer.WriteChrome(w)
}

// traceStore is a ring of the newest retained traces, evicting the
// oldest first. Every retained trace takes the next sequence number, so
// seq also counts the traces retained.
type traceStore struct {
	mu       sync.Mutex
	ring     ring[*RetainedTrace]
	seq      uint64
	seen     uint64
	byReason map[string]uint64
}

func newTraceStore() *traceStore {
	return &traceStore{ring: newRing[*RetainedTrace](traceRingCapacity), byReason: map[string]uint64{}}
}

// noteSeen counts one completed solve that passed through the sampler,
// retained or not: the denominator of the retention rate.
func (s *traceStore) noteSeen() {
	s.mu.Lock()
	s.seen++
	s.mu.Unlock()
}

// add retains a trace, assigning and returning its sequence number.
// The tracer must be quiescent (its run completed): the store reads it
// on demand for Chrome exports.
func (s *traceStore) add(rt RetainedTrace, tr *trace.Tracer) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	rt.Seq = s.seq
	rt.tracer = tr
	s.byReason[rt.Reason]++
	s.ring.push(&rt)
	return rt.Seq
}

// get returns the retained trace with the given sequence number, or
// nil if it was never retained or has been evicted.
func (s *traceStore) get(seq uint64) *RetainedTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rt := range s.ring.buf {
		if rt.Seq == seq {
			return rt
		}
	}
	return nil
}

// StoreDump is the schema-versioned JSON served at /debug/traces.
type StoreDump struct {
	Schema   string            `json:"schema"`
	Capacity int               `json:"capacity"`
	Seen     uint64            `json:"seen"`
	Retained uint64            `json:"retained"`
	Evicted  uint64            `json:"evicted"`
	ByReason map[string]uint64 `json:"byReason"`
	Traces   []RetainedTrace   `json:"traces"`
}

// dump snapshots the store, newest trace first.
func (s *traceStore) dump() StoreDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := StoreDump{
		Schema:   StoreSchema,
		Capacity: cap(s.ring.buf),
		Seen:     s.seen,
		Retained: s.seq,
		Evicted:  s.seq - uint64(len(s.ring.buf)),
		ByReason: make(map[string]uint64, len(s.byReason)),
		Traces:   make([]RetainedTrace, 0, len(s.ring.buf)),
	}
	for k, v := range s.byReason {
		d.ByReason[k] = v
	}
	for _, rt := range s.ring.newestFirst() {
		row := *rt
		row.tracer = nil
		d.Traces = append(d.Traces, row)
	}
	return d
}

// Validate checks the dump's structural invariants: schema string,
// retained ≥ len(traces), strictly decreasing sequence numbers
// (newest first), every trace carrying a reason the byReason index
// also counts, and non-negative measurements.
func (d StoreDump) Validate() error {
	if d.Schema != StoreSchema {
		return fmt.Errorf("traces: schema %q, want %q", d.Schema, StoreSchema)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("traces: capacity %d not positive", d.Capacity)
	}
	if uint64(len(d.Traces)) > d.Retained {
		return fmt.Errorf("traces: %d traces held but only %d retained", len(d.Traces), d.Retained)
	}
	if d.Retained > d.Seen {
		return fmt.Errorf("traces: retained %d > seen %d", d.Retained, d.Seen)
	}
	var prev uint64
	for i, rt := range d.Traces {
		if rt.Seq == 0 {
			return fmt.Errorf("traces: trace %d has no sequence number", i)
		}
		if i > 0 && rt.Seq >= prev {
			return fmt.Errorf("traces: not newest-first (seq %d after %d)", rt.Seq, prev)
		}
		prev = rt.Seq
		if rt.Reason == "" {
			return fmt.Errorf("traces: seq %d has no retention reason", rt.Seq)
		}
		if d.ByReason[rt.Reason] == 0 {
			return fmt.Errorf("traces: seq %d reason %q missing from byReason index", rt.Seq, rt.Reason)
		}
		if rt.WallSeconds < 0 {
			return fmt.Errorf("traces: seq %d has negative wall time", rt.Seq)
		}
		if rt.Spans < 0 || rt.DroppedSpans < 0 {
			return fmt.Errorf("traces: seq %d has negative span counts", rt.Seq)
		}
		if rt.Efficiency < 0 || rt.SerialFraction < 0 || rt.SerialFraction > 1+1e-9 {
			return fmt.Errorf("traces: seq %d has out-of-range efficiency/serial fraction", rt.Seq)
		}
	}
	return nil
}

// ValidateStoreJSON parses data as a trace-store dump and validates
// it. It is the cmd/validatetrace and CI entry point.
func ValidateStoreJSON(data []byte) error {
	var d StoreDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("traces: parse: %w", err)
	}
	return d.Validate()
}

// Sampler tuning.
const (
	// tailQuantile marks a solve slow when its latency exceeds this
	// rolling quantile of recent solve latencies.
	tailQuantile = 0.95
	// tailWindow is how many observations each rolling-quantile window
	// holds before rotating.
	tailWindow = 512
	// tailWarmup is the minimum observations before the latency
	// threshold is trusted; below it nothing is classified slow (the
	// first requests of a fresh process are all "slow" relative to an
	// empty histogram, which would retain everything).
	tailWarmup = 32
)

// tailSampler decides which completed traces to keep. It maintains a
// rolling latency quantile over two rotating fixed-bucket windows:
// observations land in the current window, and once it fills the
// previous window's quantile becomes the threshold — so the threshold
// always reflects a full recent window, never a half-empty one.
type tailSampler struct {
	mu   sync.Mutex
	cur  *telemetry.Histogram // filling
	prev *telemetry.Histogram // full, provides the threshold
	curN int
}

func newTailSampler() *tailSampler {
	return &tailSampler{cur: telemetry.NewHistogram(telemetry.SecondsBuckets)}
}

// traceInfo is what the sampler knows about a completed solve.
type traceInfo struct {
	forced  bool              // the X-Debug-Trace override: always retain
	outcome telemetry.Outcome // anything but OutcomeOK retains
	seconds float64           // the solve's wall time
}

// consider classifies one completed solve: it feeds the latency into
// the rolling window and returns the retention reason ("" = do not
// retain). Priority order: forced > error > slow, so a forced trace of
// a failing solve still reads "forced" and counting by reason stays
// unambiguous.
func (s *tailSampler) consider(info traceInfo) (reason string) {
	slow := s.observe(info.seconds)
	switch {
	case info.forced:
		return ReasonForced
	case info.outcome != telemetry.OutcomeOK:
		return ReasonError
	case slow:
		return ReasonSlow
	}
	return ""
}

// threshold returns the current slow-latency threshold in seconds and
// whether it is trustworthy yet (false during warmup).
func (s *tailSampler) threshold() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.thresholdLocked()
}

func (s *tailSampler) thresholdLocked() (float64, bool) {
	if s.prev != nil {
		return s.prev.Quantile(tailQuantile), true
	}
	if s.curN >= tailWarmup {
		return s.cur.Quantile(tailQuantile), true
	}
	return 0, false
}

// observe folds one latency into the rolling window and reports
// whether it exceeded the pre-observation threshold.
func (s *tailSampler) observe(seconds float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold, ok := s.thresholdLocked()
	s.cur.Observe(seconds, "")
	s.curN++
	if s.curN >= tailWindow {
		s.prev = s.cur
		s.cur = telemetry.NewHistogram(telemetry.SecondsBuckets)
		s.curN = 0
	}
	return ok && seconds > threshold
}
