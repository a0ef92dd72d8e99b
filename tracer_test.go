package realroots

import (
	"bytes"
	"math/big"
	"strings"
	"testing"

	"realroots/internal/trace"
)

func TestTracerPublicAPI(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tr := NewTracer()
		res, err := FindRoots(wilkinsonCoeffs(8),
			&Options{Precision: 24, Workers: workers, Tracer: tr})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Distinct != 8 {
			t.Fatalf("workers=%d: %d roots", workers, res.Distinct)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("workers=%d: Validate: %v", workers, err)
		}

		// Phase spans on the control lane.
		phases := map[string]bool{}
		tasks := map[string]bool{}
		for _, l := range tr.Lanes() {
			for _, s := range l.Spans() {
				switch s.Cat {
				case trace.CatPhase:
					phases[s.Name] = true
				case trace.CatTask:
					tasks[s.Name] = true
				}
			}
		}
		for _, want := range []string{"remainder", "solve"} {
			if !phases[want] {
				t.Errorf("workers=%d: missing phase span %q (have %v)", workers, want, phases)
			}
		}
		for _, want := range []string{"computepoly", "sort", "preinterval", "interval"} {
			if !tasks[want] {
				t.Errorf("workers=%d: missing task kind %q (have %v)", workers, want, tasks)
			}
		}

		// Chrome export and the utilization summary both work on the
		// public alias.
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("workers=%d: WriteChrome: %v", workers, err)
		}
		if err := trace.ValidateChrome(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d: ValidateChrome: %v", workers, err)
		}
		if workers > 1 {
			// The pool's worker timelines: named lanes, queue waits on
			// their task spans, and the queue-depth counter track.
			for _, want := range []string{`"worker-0"`, `"wait_us"`, `"queue depth"`} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("workers=%d: Chrome export lacks %s", workers, want)
				}
			}
		}
		sum := tr.Summarize()
		if sum.Wall <= 0 || sum.Busy <= 0 {
			t.Errorf("workers=%d: summary %+v", workers, sum)
		}
		var txt strings.Builder
		sum.WriteText(&txt)
		if !strings.Contains(txt.String(), "Utilization summary") {
			t.Errorf("workers=%d: summary text missing header:\n%s", workers, txt.String())
		}
	}
}

func TestTracerSturmBaseline(t *testing.T) {
	tr := NewTracer()
	// x² - 2: handled by the sequential Sturm path.
	res, err := FindRealRoots(
		[]*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)},
		&Options{Precision: 16, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct != 2 {
		t.Fatalf("%d roots", res.Distinct)
	}
	found := false
	for _, l := range tr.Lanes() {
		for _, s := range l.Spans() {
			if s.Name == "sturm" && s.Cat == trace.CatTask {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sturm span recorded")
	}
}

func TestNilTracerOption(t *testing.T) {
	res, err := FindRootsInt64([]int64{-2, 0, 1}, &Options{Precision: 16})
	if err != nil || res.Distinct != 2 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}
