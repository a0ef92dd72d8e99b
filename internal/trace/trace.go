// Package trace is the wall-clock companion to internal/metrics: where
// metrics counts *how much* arithmetic each phase performs, trace
// records *when* and *on which worker* the work ran. The paper's
// evaluation (§5) rests on exactly this decomposition — per-phase cost
// and per-processor utilization on the 20-processor Sequent — and the
// Tracer regenerates it on modern hardware: structured spans for every
// pipeline phase and scheduler task, per-worker timelines, queue-depth
// samples, a Chrome trace-event export (chrome://tracing, Perfetto),
// and a plain-text utilization summary (busy %, serial fraction,
// achieved speedup).
//
// Like metrics.Counters, the Tracer is nil-safe: every method on a nil
// *Tracer or nil *Lane is a no-op that performs no allocation, so the
// solver hot path carries no cost when tracing is disabled.
//
// Concurrency model: spans are recorded into per-lane buffers. Each
// lane is owned by exactly one goroutine (a scheduler worker owns its
// worker lane; the orchestrating goroutine owns the control lane), so
// span appends need no locks. Lane registration and counter samples go
// through a mutex — they are rare. Reading a tracer (WriteChrome,
// Summarize, Spans) is only valid after the traced run has completed,
// i.e. after every lane owner has synchronized with the reader (the
// scheduler's Wait/Close provides this for worker lanes).
//
// A Tracer records one run. Keeping traces across runs is the job of
// whoever serves them: rootd's tail-sampled store is in internal/server.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span categories. Phase spans are containers marking a pipeline stage
// on the control lane (they overlap the worker activity they fan out);
// task spans are actual busy work. Utilization math (busy %, serial
// fraction, parallelism) considers task spans only.
const (
	CatPhase = "phase"
	CatTask  = "task"
)

// ControlLane is the conventional lane ID for the orchestrating
// goroutine (the one calling the solver); scheduler workers use their
// worker index (0..P-1).
const ControlLane = -1

// A Span is one timed interval on a lane.
type Span struct {
	// Name identifies the work: a pipeline phase ("remainder",
	// "solve") for CatPhase spans, or a scheduler task tag
	// ("computepoly", "sort", "preinterval", "interval", …) for
	// CatTask spans.
	Name string
	// Cat is the span category: CatPhase or CatTask.
	Cat string
	// Start is the span's start offset from the tracer epoch.
	Start time.Duration
	// Dur is the span's duration (set by End).
	Dur time.Duration
	// Parent is the index (within the same lane's span slice) of the
	// enclosing span, or -1 for a top-level span.
	Parent int
	// Wait, for scheduler task spans, is the queue latency: the time
	// between the task's submission and its start.
	Wait time.Duration
}

// End reports the span's end offset from the tracer epoch.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// A Counter is one sampled value of a named time series (e.g. the
// scheduler queue depth at each dequeue).
type Counter struct {
	Name  string
	At    time.Duration // offset from the tracer epoch
	Value int64
}

// A Lane is one horizontal timeline: a scheduler worker or the control
// goroutine. All span-recording methods must be called by the lane's
// owning goroutine only.
type Lane struct {
	// ID is the lane's identity: a worker index, or ControlLane.
	ID int
	// Name labels the lane in exports ("worker-3", "control").
	Name string

	tr      *Tracer
	spans   []Span
	open    []int // stack of indices into spans with Dur not yet set
	dropped int   // spans not recorded because the lane hit its cap
}

// A Tracer collects spans and counter samples for one run. Create one
// with New (unbounded, for offline analysis) or NewLimited (bounded,
// for always-on serving-path capture); a nil *Tracer is valid
// everywhere and records nothing.
type Tracer struct {
	epoch time.Time
	// maxSpans caps each lane's span buffer (and the counter-sample
	// buffer); 0 means unbounded. Set once at construction, read-only
	// afterwards, so lane owners read it without synchronization.
	maxSpans int

	mu              sync.Mutex
	lanes           map[int]*Lane
	counters        []Counter
	droppedCounters int
	requestID       string
}

// New returns an empty Tracer whose epoch is the current time.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), lanes: make(map[int]*Lane)}
}

// NewLimited returns a Tracer that records at most maxSpans spans per
// lane and at most maxSpans counter samples; further records are
// counted as dropped instead of growing the buffers. This is the
// always-on serving-path variant: a request's trace memory is bounded
// by maxSpans × (workers+1) lanes regardless of solve size.
// maxSpans <= 0 means unbounded (identical to New).
func NewLimited(maxSpans int) *Tracer {
	if maxSpans < 0 {
		maxSpans = 0
	}
	return &Tracer{epoch: time.Now(), maxSpans: maxSpans, lanes: make(map[int]*Lane)}
}

// SetRequestID tags the tracer with the request that owns the traced
// run; the Chrome export stamps it on every span so a trace viewed
// days later still names the request it belongs to. No-op on nil.
func (t *Tracer) SetRequestID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.requestID = id
	t.mu.Unlock()
}

// RequestID returns the tag set by SetRequestID ("" on nil).
func (t *Tracer) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requestID
}

// Now returns the current offset from the tracer epoch. On a nil
// tracer it returns 0.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Lane returns the lane with the given ID, creating it (with the given
// name) on first use. Each lane must be driven by a single goroutine;
// Lane itself may be called from any goroutine. On a nil tracer it
// returns nil (and all Lane methods on nil no-op).
func (t *Tracer) Lane(id int, name string) *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.lanes[id]; ok {
		return l
	}
	l := &Lane{ID: id, Name: name, tr: t}
	t.lanes[id] = l
	return l
}

// CounterSample records one sample of the named time series. On a
// limited tracer, samples beyond the cap are dropped (and counted).
func (t *Tracer) CounterSample(name string, v int64) {
	if t == nil {
		return
	}
	at := time.Since(t.epoch)
	t.mu.Lock()
	if t.maxSpans > 0 && len(t.counters) >= t.maxSpans {
		t.droppedCounters++
	} else {
		t.counters = append(t.counters, Counter{Name: name, At: at, Value: v})
	}
	t.mu.Unlock()
}

// TaskStart opens a task span named tag, carrying the task's queue
// wait, on the lane of scheduler worker `worker`, and samples the
// queue depth. With TaskDone it satisfies sched's Observer interface,
// so a tracer attaches to a pool like any other observer.
func (t *Tracer) TaskStart(worker int, tag string, wait time.Duration, depth int) {
	if t == nil {
		return
	}
	t.CounterSample("queue depth", int64(depth))
	t.workerLane(worker).BeginAt(tag, CatTask, wait)
}

// TaskDone closes the task span TaskStart opened on worker's lane.
func (t *Tracer) TaskDone(worker int, tag string) {
	if t == nil {
		return
	}
	t.workerLane(worker).End()
}

// workerLane returns scheduler worker id's lane, creating it as
// "worker-<id>" on first use (the name is built only then).
func (t *Tracer) workerLane(id int) *Lane {
	t.mu.Lock()
	l := t.lanes[id]
	t.mu.Unlock()
	if l == nil {
		l = t.Lane(id, "worker-"+strconv.Itoa(id))
	}
	return l
}

// Begin opens a span on the lane. Spans nest: a Begin while another
// span is open records the open span as the parent. Every Begin must
// be paired with an End on the same goroutine.
func (l *Lane) Begin(name, cat string) {
	l.BeginAt(name, cat, 0)
}

// droppedSentinel marks an open-stack entry whose Begin was dropped by
// the lane's span cap, so the matching End pops it without touching the
// span buffer. Once a lane reaches its cap it never shrinks, so a real
// span can never end up nested under a sentinel.
const droppedSentinel = -1

// BeginAt is Begin with a recorded queue wait (submission→start
// latency), used by the scheduler.
func (l *Lane) BeginAt(name, cat string, wait time.Duration) {
	if l == nil {
		return
	}
	if max := l.tr.maxSpans; max > 0 && len(l.spans) >= max {
		l.dropped++
		l.open = append(l.open, droppedSentinel)
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, Span{
		Name:   name,
		Cat:    cat,
		Start:  time.Since(l.tr.epoch),
		Dur:    -1, // open
		Parent: parent,
		Wait:   wait,
	})
	l.open = append(l.open, len(l.spans)-1)
}

// End closes the most recently opened span. Ending with no open span
// panics: it indicates a Begin/End pairing bug.
func (l *Lane) End() {
	if l == nil {
		return
	}
	n := len(l.open)
	if n == 0 {
		panic("trace: Lane.End with no open span")
	}
	i := l.open[n-1]
	l.open = l.open[:n-1]
	if i == droppedSentinel {
		return // the matching Begin was dropped by the span cap
	}
	l.spans[i].Dur = time.Since(l.tr.epoch) - l.spans[i].Start
}

// Spans returns a copy of the lane's recorded spans. Open spans have
// Dur == -1. Valid only after the lane's owner has stopped recording.
func (l *Lane) Spans() []Span {
	if l == nil {
		return nil
	}
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	return out
}

// Lanes returns the tracer's lanes sorted by ID (control lane first).
// Valid only after the traced run has completed.
func (t *Tracer) Lanes() []*Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Lane, 0, len(t.lanes))
	for _, l := range t.lanes {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SpanCount returns the total number of spans recorded across all
// lanes. Valid only after the traced run has completed (same caveat as
// Lanes); a nil tracer reports 0.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// DroppedSpans returns the number of spans and counter samples the
// span cap discarded (0 for unbounded tracers). Valid only after the
// traced run has completed.
func (t *Tracer) DroppedSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.droppedCounters
	for _, l := range t.lanes {
		n += l.dropped
	}
	return n
}

// Counters returns a copy of the recorded counter samples in recording
// order.
func (t *Tracer) Counters() []Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Counter, len(t.counters))
	copy(out, t.counters)
	return out
}

// Validate checks the structural invariants of the recorded trace:
// every span closed, starts non-decreasing within each lane, children
// nested strictly inside their parents. Tests and the CI smoke job use
// it as the schema check for freshly recorded traces.
func (t *Tracer) Validate() error {
	for _, l := range t.Lanes() {
		spans := l.Spans()
		for i, s := range spans {
			if s.Dur < 0 {
				return fmt.Errorf("trace: lane %d (%s): span %d (%s) left open", l.ID, l.Name, i, s.Name)
			}
			if i > 0 && s.Start < spans[i-1].Start {
				return fmt.Errorf("trace: lane %d (%s): span %d (%s) starts before its predecessor", l.ID, l.Name, i, s.Name)
			}
			if s.Parent >= 0 {
				if s.Parent >= i {
					return fmt.Errorf("trace: lane %d (%s): span %d (%s) has non-causal parent %d", l.ID, l.Name, i, s.Name, s.Parent)
				}
				p := spans[s.Parent]
				if s.Start < p.Start || s.End() > p.End() {
					return fmt.Errorf("trace: lane %d (%s): span %d (%s) escapes parent %d (%s)", l.ID, l.Name, i, s.Name, s.Parent, p.Name)
				}
			}
		}
	}
	return nil
}
