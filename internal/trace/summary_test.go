package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

// synthetic builds a tracer with hand-written spans so the summary
// arithmetic can be checked exactly.
func synthetic() *Tracer {
	tr := New()
	ctl := tr.Lane(ControlLane, "control")
	ctl.spans = []Span{
		{Name: "remainder", Cat: CatPhase, Start: 0, Dur: 10 * ms, Parent: -1},
		{Name: "solve", Cat: CatPhase, Start: 10 * ms, Dur: 30 * ms, Parent: -1},
	}
	w0 := tr.Lane(0, "worker-0")
	w0.spans = []Span{
		{Name: "precompute", Cat: CatTask, Start: 0, Dur: 10 * ms, Parent: -1},
		{Name: "computepoly", Cat: CatTask, Start: 10 * ms, Dur: 10 * ms, Parent: -1},
		{Name: "interval", Cat: CatTask, Start: 30 * ms, Dur: 10 * ms, Parent: -1, Wait: 2 * ms},
	}
	w1 := tr.Lane(1, "worker-1")
	w1.spans = []Span{
		{Name: "computepoly", Cat: CatTask, Start: 15 * ms, Dur: 10 * ms, Parent: -1},
	}
	return tr
}

func TestSummarizeSynthetic(t *testing.T) {
	s := synthetic().Summarize()
	if s.Wall != 40*ms {
		t.Errorf("Wall = %v, want 40ms", s.Wall)
	}
	// Phases in first-seen order.
	if len(s.Phases) != 2 || s.Phases[0].Name != "remainder" || s.Phases[1].Name != "solve" {
		t.Fatalf("Phases = %+v", s.Phases)
	}
	if s.Phases[0].Wall != 10*ms || s.Phases[1].Wall != 30*ms {
		t.Errorf("phase walls = %v, %v", s.Phases[0].Wall, s.Phases[1].Wall)
	}
	if walls := synthetic().PhaseWalls(); !slices.Equal(walls, s.Phases) {
		t.Errorf("PhaseWalls = %+v, Summarize().Phases = %+v", walls, s.Phases)
	}
	// Busy: worker-0 30ms + worker-1 10ms.
	if s.Busy != 40*ms {
		t.Errorf("Busy = %v, want 40ms", s.Busy)
	}
	// Concurrency ≥ 2 only during [15,20): 5ms parallel, 35ms serial.
	wantSerial := float64(35*ms) / float64(40*ms)
	if diff := s.SerialFraction - wantSerial; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("SerialFraction = %v, want %v", s.SerialFraction, wantSerial)
	}
	if diff := s.Parallelism - 1.0; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Parallelism = %v, want 1.0", s.Parallelism)
	}
	// Task aggregation.
	byName := map[string]TaskTime{}
	for _, tk := range s.Tasks {
		byName[tk.Name] = tk
	}
	if tk := byName["computepoly"]; tk.Count != 2 || tk.Busy != 20*ms {
		t.Errorf("computepoly = %+v", tk)
	}
	if tk := byName["interval"]; tk.Count != 1 || tk.Busy != 10*ms {
		t.Errorf("interval = %+v", tk)
	}
	// Lanes: control (phase-only, zero busy), worker-0, worker-1.
	if len(s.Lanes) != 3 {
		t.Fatalf("Lanes = %+v", s.Lanes)
	}
	if s.Lanes[0].ID != ControlLane || s.Lanes[0].Busy != 0 {
		t.Errorf("control lane = %+v", s.Lanes[0])
	}
	if s.Lanes[1].Busy != 30*ms || s.Lanes[1].Tasks != 3 || s.Lanes[1].Wait != 2*ms {
		t.Errorf("worker-0 = %+v", s.Lanes[1])
	}
}

func TestSummarizeNestedTasksNotDoubleCounted(t *testing.T) {
	tr := New()
	w := tr.Lane(0, "worker-0")
	w.spans = []Span{
		{Name: "outer", Cat: CatTask, Start: 0, Dur: 10 * ms, Parent: -1},
		{Name: "inner", Cat: CatTask, Start: 2 * ms, Dur: 4 * ms, Parent: 0},
	}
	s := tr.Summarize()
	if s.Busy != 10*ms {
		t.Errorf("Busy = %v, want 10ms (nested span must not double-count)", s.Busy)
	}
	if len(s.Tasks) != 1 || s.Tasks[0].Name != "outer" {
		t.Errorf("Tasks = %+v, want only the outer task kind", s.Tasks)
	}
	if s.Lanes[0].Tasks != 1 {
		t.Errorf("lane task count = %d, want 1", s.Lanes[0].Tasks)
	}
}

func TestSummarizeOverlapUnion(t *testing.T) {
	// Overlapping spans on the same lane must be unioned for busy time.
	tr := New()
	w := tr.Lane(0, "w")
	w.spans = []Span{
		{Name: "a", Cat: CatTask, Start: 0, Dur: 6 * ms, Parent: -1},
		{Name: "b", Cat: CatTask, Start: 4 * ms, Dur: 6 * ms, Parent: -1},
	}
	if s := tr.Summarize(); s.Busy != 10*ms {
		t.Errorf("Busy = %v, want 10ms", s.Busy)
	}
}

func TestSummarizeSequentialIsFullySerial(t *testing.T) {
	tr := New()
	w := tr.Lane(ControlLane, "control")
	w.spans = []Span{
		{Name: "precompute", Cat: CatTask, Start: 0, Dur: 10 * ms, Parent: -1},
		{Name: "interval", Cat: CatTask, Start: 10 * ms, Dur: 10 * ms, Parent: -1},
	}
	s := tr.Summarize()
	if s.SerialFraction != 1.0 {
		t.Errorf("SerialFraction = %v, want 1.0 on a one-lane run", s.SerialFraction)
	}
}

func TestMergeIntervals(t *testing.T) {
	cases := []struct {
		in   []interval
		want time.Duration
	}{
		{nil, 0},
		{[]interval{{0, 5 * ms}}, 5 * ms},
		{[]interval{{0, 5 * ms}, {5 * ms, 10 * ms}}, 10 * ms},
		{[]interval{{0, 6 * ms}, {2 * ms, 4 * ms}}, 6 * ms},                   // nested
		{[]interval{{4 * ms, 10 * ms}, {0, 6 * ms}}, 10 * ms},                 // unsorted overlap
		{[]interval{{0, 1 * ms}, {5 * ms, 6 * ms}, {2 * ms, 3 * ms}}, 3 * ms}, // gaps
	}
	for i, c := range cases {
		if got := mergeIntervals(c.in); got != c.want {
			t.Errorf("case %d: mergeIntervals = %v, want %v", i, got, c.want)
		}
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := synthetic().Summarize().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Utilization summary",
		"Pipeline phases",
		"remainder",
		"Task kinds",
		"computepoly",
		"Workers:",
		"worker-1",
		"serial fraction",
		"achieved speedup",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary text missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (Summary{}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Utilization summary") {
		t.Errorf("empty summary output: %q", buf.String())
	}
}
