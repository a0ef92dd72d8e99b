package trace

import (
	"fmt"
	"testing"
)

func TestLimitedTracerCapsSpans(t *testing.T) {
	tr := NewLimited(3)
	l := tr.Lane(ControlLane, "control")
	for i := 0; i < 10; i++ {
		l.Begin(fmt.Sprintf("t%d", i), CatTask)
		l.End()
	}
	if got := tr.SpanCount(); got != 3 {
		t.Errorf("SpanCount = %d, want 3", got)
	}
	if got := tr.DroppedSpans(); got != 7 {
		t.Errorf("DroppedSpans = %d, want 7", got)
	}
	// The surviving spans are all closed and structurally valid.
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range l.Spans() {
		if s.Dur < 0 {
			t.Errorf("span %q left open", s.Name)
		}
	}
}

func TestLimitedTracerNestedDropPairing(t *testing.T) {
	// A Begin dropped at the cap must consume exactly its own End:
	// open a real span, hit the cap with nested Begins, and check the
	// real span still closes correctly.
	tr := NewLimited(1)
	l := tr.Lane(ControlLane, "control")
	l.Begin("outer", CatTask) // recorded (span 1 of 1)
	l.Begin("inner1", CatTask)
	l.Begin("inner2", CatTask)
	l.End() // inner2 (dropped)
	l.End() // inner1 (dropped)
	l.End() // outer (recorded)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	spans := l.Spans()
	if len(spans) != 1 || spans[0].Name != "outer" || spans[0].Dur < 0 {
		t.Fatalf("spans = %+v, want one closed outer span", spans)
	}
	if tr.DroppedSpans() != 2 {
		t.Errorf("DroppedSpans = %d, want 2", tr.DroppedSpans())
	}
}

func TestLimitedTracerPerLaneCap(t *testing.T) {
	// The cap is per lane: a second lane records its own quota.
	tr := NewLimited(2)
	for lane := 0; lane < 2; lane++ {
		l := tr.Lane(lane, fmt.Sprintf("worker-%d", lane))
		for i := 0; i < 5; i++ {
			l.Begin("t", CatTask)
			l.End()
		}
	}
	if got := tr.SpanCount(); got != 4 {
		t.Errorf("SpanCount = %d, want 4 (2 per lane)", got)
	}
	if got := tr.DroppedSpans(); got != 6 {
		t.Errorf("DroppedSpans = %d, want 6", got)
	}
}

func TestLimitedTracerCapsCounters(t *testing.T) {
	tr := NewLimited(2)
	for i := 0; i < 5; i++ {
		tr.CounterSample("queue", int64(i))
	}
	if got := len(tr.Counters()); got != 2 {
		t.Errorf("counters = %d, want 2", got)
	}
	if got := tr.DroppedSpans(); got != 3 {
		t.Errorf("DroppedSpans = %d (counter drops), want 3", got)
	}
}

func TestNewLimitedZeroIsUnbounded(t *testing.T) {
	for _, cap := range []int{0, -5} {
		tr := NewLimited(cap)
		l := tr.Lane(ControlLane, "control")
		for i := 0; i < 100; i++ {
			l.Begin("t", CatTask)
			l.End()
		}
		if got := tr.SpanCount(); got != 100 {
			t.Errorf("NewLimited(%d): SpanCount = %d, want 100", cap, got)
		}
		if got := tr.DroppedSpans(); got != 0 {
			t.Errorf("NewLimited(%d): DroppedSpans = %d, want 0", cap, got)
		}
	}
}

func TestSpanAccessorsNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.SpanCount() != 0 || tr.DroppedSpans() != 0 {
		t.Error("nil tracer reported spans")
	}
}
