package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// FlightSchema identifies the flight-recorder dump JSON format.
const FlightSchema = "realroots/flight/v1"

// RecordKind distinguishes span boundaries from point events.
type RecordKind uint8

const (
	KindBegin RecordKind = iota
	KindEnd
	KindEvent
)

var kindNames = [...]string{"begin", "end", "event"}

// String returns the kind's wire name.
func (k RecordKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its name.
func (k RecordKind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("telemetry: invalid record kind %d", int(k))
	}
	return json.Marshal(kindNames[k])
}

// UnmarshalJSON decodes a kind name.
func (k *RecordKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = RecordKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown record kind %q", s)
}

// Record is one flight-recorder entry. Records are immutable once
// published to the ring.
type Record struct {
	// Seq is the record's global sequence number (0-based, assigned in
	// publication order).
	Seq uint64 `json:"seq"`
	// Run is the ID of the solve run the record belongs to.
	Run uint64 `json:"run"`
	// Lane is the record's timeline: ControlLane for the lifecycle and
	// phase records a solve writes.
	Lane int `json:"lane"`
	// Kind is begin/end/event.
	Kind RecordKind `json:"kind"`
	// Name is the span or event name (for KindBegin/KindEnd, the span
	// name that must match between the pair).
	Name string `json:"name"`
	// Cat is the span category (trace.CatPhase for a solve's phases);
	// empty for events.
	Cat string `json:"cat,omitempty"`
	// AtNs is the record time in nanoseconds since the recorder was
	// created.
	AtNs int64 `json:"atNs"`
	// Value is an optional event payload (roots found, budget spent,
	// attempts left, …).
	Value int64 `json:"value,omitempty"`
}

// Flight is a fixed-size lock-free ring buffer of recent Records —
// the always-on counterpart of the unbounded trace.Tracer lanes.
// Writers claim a slot with one atomic add and publish the record with
// one atomic pointer store; there are no locks on the write path and
// no allocation beyond the record itself, so it can stay enabled in
// production. A nil *Flight is valid everywhere and records nothing
// with zero allocations.
type Flight struct {
	epoch time.Time
	seq   atomic.Uint64
	slots []atomic.Pointer[Record]
}

// minFlightCapacity keeps degenerate rings from thrashing.
const minFlightCapacity = 64

// NewFlight creates a flight recorder holding the most recent
// capacity records (clamped up to a small minimum).
func NewFlight(capacity int) *Flight {
	if capacity < minFlightCapacity {
		capacity = minFlightCapacity
	}
	return &Flight{
		epoch: time.Now(),
		slots: make([]atomic.Pointer[Record], capacity),
	}
}

// Capacity returns the ring size (0 for a nil recorder).
func (f *Flight) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Written returns the total number of records ever published (0 for a
// nil recorder). Records older than the most recent Capacity have been
// overwritten.
func (f *Flight) Written() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// record stamps, sequences, and publishes rec.
func (f *Flight) record(rec *Record) {
	// Timestamp before claiming the sequence number so that records
	// published by one goroutine have non-decreasing AtNs in Seq order
	// (the dump validator checks this per (run, lane)).
	rec.AtNs = int64(time.Since(f.epoch))
	rec.Seq = f.seq.Add(1) - 1
	f.slots[rec.Seq%uint64(len(f.slots))].Store(rec)
}

// Begin records the start of a span on the given run and lane.
func (f *Flight) Begin(run uint64, lane int, name, cat string) {
	if f == nil {
		return
	}
	f.record(&Record{Run: run, Lane: lane, Kind: KindBegin, Name: name, Cat: cat})
}

// End records the end of the innermost open span with the given name.
func (f *Flight) End(run uint64, lane int, name string) {
	if f == nil {
		return
	}
	f.record(&Record{Run: run, Lane: lane, Kind: KindEnd, Name: name})
}

// Event records a point event.
func (f *Flight) Event(run uint64, lane int, name string, value int64) {
	if f == nil {
		return
	}
	f.record(&Record{Run: run, Lane: lane, Kind: KindEvent, Name: name, Value: value})
}

// Dump is a validated snapshot of the flight recorder's window.
type Dump struct {
	Schema   string `json:"schema"`
	Capacity int    `json:"capacity"`
	// Written is the total number of records published when the dump
	// was taken; Dropped = Written - len(Records) of them had been
	// overwritten (or were mid-publication) and are absent.
	Written uint64   `json:"written"`
	Dropped uint64   `json:"dropped"`
	Records []Record `json:"records"`
}

// Dump snapshots the ring. Because writers are concurrent, slots at
// the ring's wrap point may hold records from two different laps; the
// snapshot is trimmed to the longest suffix of consecutive sequence
// numbers, which is always a consistent recent window. A nil recorder
// dumps as nil.
func (f *Flight) Dump() *Dump {
	if f == nil {
		return nil
	}
	recs := make([]Record, 0, len(f.slots))
	for i := range f.slots {
		if r := f.slots[i].Load(); r != nil {
			recs = append(recs, *r)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	k := len(recs) - 1
	for k > 0 && recs[k-1].Seq+1 == recs[k].Seq {
		k--
	}
	if k > 0 {
		recs = recs[k:]
	}
	// Written is read after collecting the slots so it can only
	// overcount (records published mid-dump land in Dropped, never in
	// a negative count).
	written := f.seq.Load()
	return &Dump{
		Schema:   FlightSchema,
		Capacity: len(f.slots),
		Written:  written,
		Dropped:  written - uint64(len(recs)),
		Records:  recs,
	}
}

// WriteJSON writes the dump as indented JSON.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Validate checks the dump's internal consistency: schema and counts,
// consecutive sequence numbers, and — per (run, lane) — the span
// nesting invariants that trace.Validate enforces on full traces,
// adapted to a window that may have lost its beginning to ring
// wraparound:
//
//   - span records on one lane have non-decreasing timestamps;
//   - an End whose lane has an open span must close the innermost one
//     (matching name — spans nest properly);
//   - an End on an empty lane stack is permitted only if records were
//     dropped (its Begin may predate the window);
//   - spans still open at the end of the window are permitted (the
//     dump may precede their End).
func (d *Dump) Validate() error {
	if d == nil {
		return fmt.Errorf("telemetry: nil flight dump")
	}
	if d.Schema != FlightSchema {
		return fmt.Errorf("telemetry: flight dump schema %q, want %q", d.Schema, FlightSchema)
	}
	if d.Capacity <= 0 {
		return fmt.Errorf("telemetry: flight dump capacity %d", d.Capacity)
	}
	if len(d.Records) > d.Capacity {
		return fmt.Errorf("telemetry: %d records exceed capacity %d", len(d.Records), d.Capacity)
	}
	if d.Written < uint64(len(d.Records)) {
		return fmt.Errorf("telemetry: written %d < %d records", d.Written, len(d.Records))
	}
	if d.Dropped != d.Written-uint64(len(d.Records)) {
		return fmt.Errorf("telemetry: dropped %d, want written-records = %d", d.Dropped, d.Written-uint64(len(d.Records)))
	}
	type laneKey struct {
		run  uint64
		lane int
	}
	type laneState struct {
		stack  []string
		lastAt int64
	}
	lanes := map[laneKey]*laneState{}
	for i, r := range d.Records {
		if i > 0 && r.Seq != d.Records[i-1].Seq+1 {
			return fmt.Errorf("telemetry: record %d has seq %d after %d (window not consecutive)", i, r.Seq, d.Records[i-1].Seq)
		}
		if r.Name == "" {
			return fmt.Errorf("telemetry: record seq %d has empty name", r.Seq)
		}
		if r.AtNs < 0 {
			return fmt.Errorf("telemetry: record seq %d has negative timestamp", r.Seq)
		}
		if int(r.Kind) >= len(kindNames) {
			return fmt.Errorf("telemetry: record seq %d has invalid kind %d", r.Seq, int(r.Kind))
		}
		if r.Kind == KindEvent {
			continue
		}
		key := laneKey{r.Run, r.Lane}
		st := lanes[key]
		if st == nil {
			st = &laneState{}
			lanes[key] = st
		}
		// Span records on one lane are produced by one goroutine, so
		// their timestamps must be ordered.
		if r.AtNs < st.lastAt {
			return fmt.Errorf("telemetry: record seq %d (run %d lane %d) goes back in time", r.Seq, r.Run, r.Lane)
		}
		st.lastAt = r.AtNs
		switch r.Kind {
		case KindBegin:
			st.stack = append(st.stack, r.Name)
		case KindEnd:
			if n := len(st.stack); n > 0 {
				if top := st.stack[n-1]; top != r.Name {
					return fmt.Errorf("telemetry: record seq %d ends span %q but %q is open (run %d lane %d)", r.Seq, r.Name, top, r.Run, r.Lane)
				}
				st.stack = st.stack[:n-1]
			} else if d.Dropped == 0 {
				return fmt.Errorf("telemetry: record seq %d ends span %q with no open span and nothing dropped (run %d lane %d)", r.Seq, r.Name, r.Run, r.Lane)
			}
		}
	}
	return nil
}

// ValidateDumpJSON parses data as a flight-recorder dump and validates
// it.
func ValidateDumpJSON(data []byte) error {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("telemetry: parsing flight dump: %w", err)
	}
	return d.Validate()
}
