package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"realroots/internal/trace"
)

func TestQueueDepthAndStats(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	// Block the single worker so submissions pile up measurably.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	p.Submit(func() { started.Done(); <-release })
	started.Wait()

	for i := 0; i < 5; i++ {
		p.Submit(func() {})
	}
	if d := p.QueueDepth(); d != 5 {
		t.Errorf("QueueDepth = %d, want 5", d)
	}
	close(release)
	p.Wait()

	st := p.Stats()
	if st.Workers != 1 {
		t.Errorf("Stats.Workers = %d, want 1", st.Workers)
	}
	if st.Executed != 6 {
		t.Errorf("Stats.Executed = %d, want 6", st.Executed)
	}
	if st.MaxQueueDepth < 5 {
		t.Errorf("Stats.MaxQueueDepth = %d, want >= 5", st.MaxQueueDepth)
	}
	if st.Panics != 0 || st.Retries != 0 {
		t.Errorf("Stats = %+v, want zero panics/retries", st)
	}
	if d := p.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth after Wait = %d, want 0", d)
	}
}

func TestStatsCountsPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Submit(func() { panic("boom") })
	p.Wait()
	if got := p.Stats().Panics; got != 1 {
		t.Errorf("Stats.Panics = %d, want 1", got)
	}
	var pe *PanicError
	if !errors.As(p.Err(), &pe) {
		t.Errorf("Err = %v, want PanicError", p.Err())
	}
}

func TestStatsCountsRetries(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var calls atomic.Int64
	p.SubmitRetry(3, func() error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	p.Wait()
	if err := p.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if got := p.Stats().Retries; got != 2 {
		t.Errorf("Stats.Retries = %d, want 2", got)
	}
}

func TestTracerRecordsWorkerSpans(t *testing.T) {
	tr := trace.New()
	p := NewPool(3)
	p.SetTracer(tr)
	const n = 24
	for i := 0; i < n; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Submit(func() {}) // default tag
	p.Wait()
	p.Close()

	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lanes := tr.Lanes()
	if len(lanes) == 0 || len(lanes) > 3 {
		t.Fatalf("got %d lanes, want 1..3", len(lanes))
	}
	total, tagged := 0, 0
	for _, l := range lanes {
		if l.ID < 0 || l.ID > 2 {
			t.Errorf("unexpected lane ID %d", l.ID)
		}
		for _, s := range l.Spans() {
			if s.Cat != trace.CatTask {
				t.Errorf("span cat = %q, want task", s.Cat)
			}
			total++
			if s.Name == "interval" {
				tagged++
			}
		}
	}
	if total != n+1 {
		t.Errorf("recorded %d spans, want %d", total, n+1)
	}
	if tagged != n {
		t.Errorf("%d interval-tagged spans, want %d", tagged, n)
	}
	if len(tr.Counters()) != total {
		t.Errorf("%d queue-depth samples, want %d", len(tr.Counters()), total)
	}
}

func TestTracedGateAndParallelForTags(t *testing.T) {
	tr := trace.New()
	p := NewPool(2)
	p.SetTracer(tr)
	g := NewGateTagged(p, 2, "sort", func() {})
	_ = p.ParallelForTagged("precompute", 8, 4, func(i int) {})
	g.Done()
	g.Done()
	p.Wait()
	p.Close()

	byTag := map[string]int{}
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			byTag[s.Name]++
		}
	}
	if byTag["precompute"] != 2 {
		t.Errorf("precompute spans = %d, want 2 (8 iterations / grain 4)", byTag["precompute"])
	}
	if byTag["sort"] != 1 {
		t.Errorf("sort spans = %d, want 1", byTag["sort"])
	}
}

func TestTracedSimulatedPool(t *testing.T) {
	tr := trace.New()
	p := NewSimulatedPool(4)
	p.SetTracer(tr)
	for i := 0; i < 6; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Wait()
	p.Close()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	lanes := tr.Lanes()
	if len(lanes) != 1 {
		t.Fatalf("simulated pool has %d lanes, want 1 (one real worker)", len(lanes))
	}
	if got := len(lanes[0].Spans()); got != 6 {
		t.Errorf("spans = %d, want 6", got)
	}
}

// recordingObserver captures lifecycle callbacks for assertions.
type recordingObserver struct {
	mu     sync.Mutex
	events []obsEvent
}

type obsEvent struct {
	kind   string // "start", "done", "panic", "retry"
	worker int
	tag    string
	left   int
}

func (o *recordingObserver) add(e obsEvent) {
	o.mu.Lock()
	o.events = append(o.events, e)
	o.mu.Unlock()
}

func (o *recordingObserver) TaskStart(worker int, tag string) {
	o.add(obsEvent{kind: "start", worker: worker, tag: tag})
}
func (o *recordingObserver) TaskDone(worker int, tag string) {
	o.add(obsEvent{kind: "done", worker: worker, tag: tag})
}
func (o *recordingObserver) TaskPanic(worker int, tag string, v any) {
	o.add(obsEvent{kind: "panic", worker: worker, tag: tag})
}
func (o *recordingObserver) TaskRetry(tag string, left int) {
	o.add(obsEvent{kind: "retry", tag: tag, left: left})
}

func (o *recordingObserver) byKind() map[string][]obsEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := map[string][]obsEvent{}
	for _, e := range o.events {
		m[e.kind] = append(m[e.kind], e)
	}
	return m
}

func TestObserverBalancedStartDone(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(3)
	p.SetObserver(obs)
	const n = 20
	for i := 0; i < n; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Wait()
	p.Close()

	by := obs.byKind()
	if len(by["start"]) != n || len(by["done"]) != n {
		t.Fatalf("starts=%d dones=%d, want %d each", len(by["start"]), len(by["done"]), n)
	}
	for _, e := range append(by["start"], by["done"]...) {
		if e.worker < 0 || e.worker > 2 {
			t.Errorf("callback on worker %d, want 0..2", e.worker)
		}
		if e.tag != "interval" {
			t.Errorf("callback tag %q", e.tag)
		}
	}
}

// TestObserverPanicOrder pins the contract documented on Observer:
// a panicking task still produces a balanced Start/Done pair, with
// TaskPanic in between and on the same worker.
func TestObserverPanicOrder(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(1)
	defer p.Close()
	p.SetObserver(obs)
	p.SubmitTagged("boom", func() { panic("kaboom") })
	p.Wait()

	var kinds []string
	var workers []int
	obs.mu.Lock()
	for _, e := range obs.events {
		kinds = append(kinds, e.kind)
		workers = append(workers, e.worker)
	}
	obs.mu.Unlock()
	want := []string{"start", "panic", "done"}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("event order %v, want %v", kinds, want)
	}
	if workers[0] != workers[1] || workers[1] != workers[2] {
		t.Fatalf("panic reported across workers: %v", workers)
	}
}

func TestObserverRetry(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(1)
	defer p.Close()
	p.SetObserver(obs)
	var calls atomic.Int64
	p.SubmitRetry(3, func() error {
		if calls.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	p.Wait()

	by := obs.byKind()
	if len(by["retry"]) != 2 {
		t.Fatalf("retry callbacks = %d, want 2", len(by["retry"]))
	}
	if by["retry"][0].left != 2 || by["retry"][1].left != 1 {
		t.Fatalf("attempts-left sequence %v", by["retry"])
	}
	// Each attempt is a separate task execution.
	if len(by["start"]) != 3 || len(by["done"]) != 3 {
		t.Fatalf("starts=%d dones=%d, want 3 each", len(by["start"]), len(by["done"]))
	}
}

// TestObserverParallelForPanic: a ParallelFor body panic is recovered
// per chunk and reported with worker -1 (the chunk's worker identity is
// the enclosing task, whose Start/Done still balance).
func TestObserverParallelForPanic(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(2)
	defer p.Close()
	p.SetObserver(obs)
	err := p.ParallelForTagged("chunk", 8, 4, func(i int) {
		if i == 5 {
			panic("body")
		}
	})
	if err == nil {
		t.Fatal("ParallelForTagged swallowed the panic")
	}
	// On the cancel path ParallelForTagged returns without waiting for
	// a straggler chunk; Wait returns once its TaskDone has run.
	p.Wait()
	by := obs.byKind()
	if len(by["panic"]) != 1 {
		t.Fatalf("panic callbacks = %d, want 1", len(by["panic"]))
	}
	if e := by["panic"][0]; e.worker != -1 || e.tag != "chunk" {
		t.Fatalf("panic event %+v, want worker -1 tag chunk", e)
	}
	if len(by["start"]) != len(by["done"]) {
		t.Fatalf("unbalanced start/done: %d/%d", len(by["start"]), len(by["done"]))
	}
}

// TestObserverOnSimulatedPool checks the virtual-time pool drives the
// same callbacks.
func TestObserverOnSimulatedPool(t *testing.T) {
	obs := &recordingObserver{}
	p := NewSimulatedPool(4)
	defer p.Close()
	p.SetObserver(obs)
	for i := 0; i < 6; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.Wait()
	by := obs.byKind()
	if len(by["start"]) != 6 || len(by["done"]) != 6 {
		t.Fatalf("starts=%d dones=%d, want 6 each", len(by["start"]), len(by["done"]))
	}
}

// TestUntracedPoolUnchanged pins the no-tracer behavior: no lanes, no
// samples, stats still counted.
func TestUntracedPoolUnchanged(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for i := 0; i < 10; i++ {
		p.Submit(func() {})
	}
	p.Wait()
	if got := p.Executed(); got != 10 {
		t.Errorf("Executed = %d, want 10", got)
	}
}
