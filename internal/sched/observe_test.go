package sched

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"realroots/internal/trace"
)

func TestQueueDepthAndStats(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(1, obs)
	defer p.Close()

	// Block the single worker so submissions pile up measurably.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	p.SubmitTagged("task", func() { started.Done(); <-release })
	started.Wait()

	for i := 0; i < 5; i++ {
		p.SubmitTagged("task", func() {})
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
	if st.Panics != 0 {
		t.Errorf("Stats = %+v, want zero panics", st)
	}
	// Each start sees the queue left behind by its own dequeue.
	var depths []int
	for _, e := range obs.byKind()["start"] {
		depths = append(depths, e.depth)
		if e.wait < 0 {
			t.Errorf("negative queue wait %v", e.wait)
		}
	}
	if want := []int{0, 4, 3, 2, 1, 0}; !slices.Equal(depths, want) {
		t.Errorf("observed depths %v, want %v", depths, want)
	}
}

func TestStatsCountsPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.SubmitTagged("task", func() { panic("boom") })
	p.Wait()
	if got := p.Stats().Panics; got != 1 {
		t.Errorf("Stats.Panics = %d, want 1", got)
	}
	var pe *PanicError
	if !errors.As(p.Err(), &pe) {
		t.Errorf("Err = %v, want PanicError", p.Err())
	}
}

func TestTracerRecordsWorkerSpans(t *testing.T) {
	tr := trace.New()
	p := NewPool(3, tr)
	const n = 24
	for i := 0; i < n; i++ {
		p.SubmitTagged("interval", func() {})
	}
	p.SubmitTagged("task", func() {})
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
	p := NewPool(2, tr)
	g := NewGateTagged(p, 2, "sort", func() {})
	_ = p.ParallelForTagged("precompute", 8, func(i int) {})
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
	if byTag["precompute"] != 8 {
		t.Errorf("precompute spans = %d, want 8 (one per iteration)", byTag["precompute"])
	}
	if byTag["sort"] != 1 {
		t.Errorf("sort spans = %d, want 1", byTag["sort"])
	}
}

func TestTracedSimulatedPool(t *testing.T) {
	tr := trace.New()
	p := NewSimulatedPool(4, tr)
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
	name   string    // written to order, when set
	order  *[]string // shared across observers by TestObserverListOrder
	mu     sync.Mutex
	events []obsEvent
}

type obsEvent struct {
	kind   string // "start" or "done"
	worker int
	tag    string
	wait   time.Duration
	depth  int
}

func (o *recordingObserver) add(e obsEvent) {
	o.mu.Lock()
	o.events = append(o.events, e)
	if o.order != nil {
		*o.order = append(*o.order, e.kind+":"+o.name)
	}
	o.mu.Unlock()
}

func (o *recordingObserver) TaskStart(worker int, tag string, wait time.Duration, depth int) {
	o.add(obsEvent{kind: "start", worker: worker, tag: tag, wait: wait, depth: depth})
}
func (o *recordingObserver) TaskDone(worker int, tag string) {
	o.add(obsEvent{kind: "done", worker: worker, tag: tag})
}

func (o *recordingObserver) all() []obsEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.events)
}

func (o *recordingObserver) byKind() map[string][]obsEvent {
	m := map[string][]obsEvent{}
	for _, e := range o.all() {
		m[e.kind] = append(m[e.kind], e)
	}
	return m
}

// countingObserver numbers task starts 0, 1, 2, … like core's
// fault-injection adapter, and panics at start number panicAt (≥ 1).
type countingObserver struct {
	panicAt int64
	n       atomic.Int64
	mu      sync.Mutex
	seen    []int64
}

func (c *countingObserver) TaskStart(int, string, time.Duration, int) {
	seq := c.n.Add(1) - 1
	c.mu.Lock()
	c.seen = append(c.seen, seq)
	c.mu.Unlock()
	if c.panicAt > 0 && seq == c.panicAt {
		panic("injected")
	}
}
func (c *countingObserver) TaskDone(int, string) {}

func (c *countingObserver) seqs() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.seen)
}

// TestObserverListOrder pins the order in which a pool calls its
// observers: starts in list order, dones in reverse, and a panicking
// task the same.
func TestObserverListOrder(t *testing.T) {
	var order []string
	a := &recordingObserver{name: "a", order: &order}
	b := &recordingObserver{name: "b", order: &order}
	c := &recordingObserver{name: "c", order: &order}
	p := NewPool(1, a, b, c)
	defer p.Close()
	p.SubmitTagged("ok", func() {})
	p.Wait()
	want := []string{"start:a", "start:b", "start:c", "done:c", "done:b", "done:a"}
	if !slices.Equal(order, want) {
		t.Fatalf("healthy task: order %v, want %v", order, want)
	}
	order = order[:0]
	p.SubmitTagged("boom", func() { panic("kaboom") })
	p.Wait()
	want = []string{"start:a", "start:b", "start:c", "done:c", "done:b", "done:a"}
	if !slices.Equal(order, want) {
		t.Fatalf("panicking task: order %v, want %v", order, want)
	}
}

func TestObserverBalancedStartDone(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(3, obs)
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
// a panicking task still produces a balanced Start/Done pair on one
// worker, and its value reaches the pool's Err.
func TestObserverPanicOrder(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(1, obs)
	defer p.Close()
	p.SubmitTagged("boom", func() { panic("kaboom") })
	p.Wait()

	var kinds []string
	var workers []int
	for _, e := range obs.all() {
		kinds = append(kinds, e.kind)
		workers = append(workers, e.worker)
	}
	if want := []string{"start", "done"}; !slices.Equal(kinds, want) {
		t.Fatalf("event order %v, want %v", kinds, want)
	}
	if workers[0] != workers[1] {
		t.Fatalf("task spans workers %v", workers)
	}
	var pe *PanicError
	if !errors.As(p.Err(), &pe) || pe.Value != "kaboom" {
		t.Fatalf("Err = %v, want the task's panic", p.Err())
	}
}

// TestObserverParallelForPanic: a ParallelForTagged body panic is
// recovered inside its task, whose Start/Done still balance, and fails
// the loop with the panic.
func TestObserverParallelForPanic(t *testing.T) {
	obs := &recordingObserver{}
	p := NewPool(2, obs)
	defer p.Close()
	err := p.ParallelForTagged("chunk", 8, func(i int) {
		if i == 5 {
			panic("body")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "body" {
		t.Fatalf("ParallelForTagged = %v, want the body's panic", err)
	}
	// On the cancel path ParallelForTagged returns without waiting for
	// a straggler iteration; Wait returns once its TaskDone has run.
	p.Wait()
	by := obs.byKind()
	if len(by["start"]) != len(by["done"]) {
		t.Fatalf("unbalanced start/done: %d/%d", len(by["start"]), len(by["done"]))
	}
	for _, e := range by["done"] {
		if e.tag != "chunk" || e.worker < 0 || e.worker > 1 {
			t.Fatalf("done event %+v, want tag chunk on worker 0..1", e)
		}
	}
}

// TestObserverOnSimulatedPool checks the virtual-time pool drives the
// same callbacks.
func TestObserverOnSimulatedPool(t *testing.T) {
	obs := &recordingObserver{}
	p := NewSimulatedPool(4, obs)
	defer p.Close()
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
		p.SubmitTagged("task", func() {})
	}
	p.Wait()
	if got := p.Executed(); got != 10 {
		t.Errorf("Executed = %d, want 10", got)
	}
}
