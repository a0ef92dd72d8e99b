package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"realroots/internal/metrics"
	"realroots/internal/poly"
	"realroots/internal/sched"
	"realroots/internal/trace"
)

// testPoly returns a modest all-real-roots polynomial: the product of
// (x - k) for k in [1, n] (a Wilkinson-style instance).
func testPoly(n int) *poly.Poly {
	p := poly.FromInt64s(1)
	for k := 1; k <= n; k++ {
		p = p.Mul(poly.FromInt64s(int64(-k), 1))
	}
	return p
}

func TestValidateOptions(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		field string // "" means valid
	}{
		{"zero value", Options{}, ""},
		{"sequential", Options{Mu: 32}, ""},
		{"parallel", Options{Mu: 32, Workers: 8}, ""},
		{"simulated", Options{Mu: 32, SimulateWorkers: 16}, ""},
		{"max mu", Options{Mu: MaxMu}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"very negative workers", Options{Workers: -100}, "Workers"},
		{"negative simulated", Options{SimulateWorkers: -2}, "SimulateWorkers"},
		{"workers and simulated", Options{Workers: 2, SimulateWorkers: 2}, "SimulateWorkers"},
		{"one worker and simulated", Options{Workers: 1, SimulateWorkers: 4}, "SimulateWorkers"},
		{"mu out of range", Options{Mu: MaxMu + 1}, "Mu"},
		{"negative budget", Options{MaxBitOps: -5}, "MaxBitOps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Validate accepted invalid options")
			}
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("error %v does not match ErrInvalidOptions", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not an *OptionError", err)
			}
			if oe.Field != tc.field {
				t.Fatalf("Field = %q, want %q", oe.Field, tc.field)
			}
		})
	}
}

func TestFindRootsRejectsInvalidOptionsEarly(t *testing.T) {
	// Before Validate existed, a negative worker count reached
	// sched.NewPool and panicked; now it is a typed error.
	p := testPoly(4)
	res, err := FindRoots(p, Options{Mu: 8, Workers: -3})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	if res != nil {
		t.Fatal("invalid options returned a result")
	}
}

// checkPartial asserts the (res, err) pair of an interrupted run: a
// typed resilience error plus a Roots-free Result carrying stats.
func checkPartial(t *testing.T, res *Result, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if !IsResilience(err) {
		t.Fatalf("IsResilience(%v) = false", err)
	}
	if res == nil {
		t.Fatal("interrupted run returned a nil Result (want partial stats)")
	}
	if len(res.Roots) != 0 {
		t.Fatalf("interrupted run returned %d roots", len(res.Roots))
	}
}

func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := testPoly(10)
	for _, workers := range []int{0, 4} {
		res, err := FindRoots(p, Options{Mu: 16, Workers: workers, Ctx: ctx})
		checkPartial(t, res, err, ErrCanceled)
	}
}

func TestCancelAtPhaseBoundariesSequential(t *testing.T) {
	p := testPoly(12)
	for _, phase := range []string{"remainder", "solve", "interval"} {
		t.Run(phase, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen []string
			tr := trace.New()
			opts := Options{Mu: 16, Ctx: ctx, Tracer: tr, OnPhase: func(ph string) {
				seen = append(seen, ph)
				if ph == phase {
					cancel()
				}
			}}
			res, err := FindRoots(p, opts)
			checkPartial(t, res, err, ErrCanceled)
			if seen[len(seen)-1] != phase {
				t.Fatalf("phases seen %v, want run to stop at %q", seen, phase)
			}
			checkPhaseSpanClosed(t, tr, phase)
		})
	}
}

// checkPhaseSpanClosed checks that a run canceled as phase began left a
// well-formed trace whose last phase span is phase's own ("solve" for
// interval, which has none), closed although the phase failed.
func checkPhaseSpanClosed(t *testing.T, tr *trace.Tracer, phase string) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Errorf("trace after canceling at %q: %v", phase, err)
	}
	want := phase
	if phase == "interval" {
		want = "solve"
	}
	if spans := phaseSpans(tr); len(spans) == 0 || spans[len(spans)-1] != want {
		t.Errorf("phase spans %v, want the last to be %q", spans, want)
	}
}

func TestCancelAtPhaseBoundariesParallel(t *testing.T) {
	p := testPoly(12)
	// The remainder and solve boundaries abort deterministically via
	// the stop() polls on the submitting goroutine.
	for _, phase := range []string{"remainder", "solve"} {
		t.Run(phase, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr := trace.New()
			opts := Options{Mu: 16, Workers: 4, Ctx: ctx, Tracer: tr, OnPhase: func(ph string) {
				if ph == phase {
					cancel()
				}
			}}
			res, err := FindRoots(p, opts)
			checkPartial(t, res, err, ErrCanceled)
			checkPhaseSpanClosed(t, tr, phase)
		})
	}
	// The interval boundary is signalled from inside a pool task, so
	// cancellation races run completion: a small instance can finish
	// before the watchdog drains the queue. Either outcome is legal —
	// what is being tested is that the error, when it occurs, is typed
	// and that the run never hangs.
	t.Run("interval", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := Options{Mu: 32, Workers: 4, Ctx: ctx, OnPhase: func(ph string) {
			if ph == "interval" {
				cancel()
			}
		}}
		res, err := FindRoots(testPoly(16), opts)
		if err == nil {
			if len(res.Roots) != 16 {
				t.Fatalf("completed run returned %d roots", len(res.Roots))
			}
			return
		}
		checkPartial(t, res, err, ErrCanceled)
	})
}

func TestTimeoutReturnsErrDeadline(t *testing.T) {
	p := testPoly(10)
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
		time.Sleep(time.Millisecond) // ensure the deadline has passed
		res, err := FindRoots(p, Options{Mu: 16, Workers: workers, Ctx: ctx})
		cancel()
		checkPartial(t, res, err, ErrDeadline)
	}
}

func TestBudgetExceeded(t *testing.T) {
	p := testPoly(14)
	for _, workers := range []int{0, 4} {
		// A budget far below the instance's real cost must trip; note
		// that no Counters are supplied — core meters internally.
		res, err := FindRoots(p, Options{Mu: 32, Workers: workers, MaxBitOps: 2000})
		checkPartial(t, res, err, ErrBudgetExceeded)
	}
}

func TestBudgetGenerousSucceeds(t *testing.T) {
	p := testPoly(8)
	var c metrics.Counters
	res, err := FindRoots(p, Options{Mu: 16, MaxBitOps: 1 << 40, Counters: &c})
	if err != nil {
		t.Fatalf("FindRoots = %v", err)
	}
	if len(res.Roots) != 8 {
		t.Fatalf("%d roots", len(res.Roots))
	}
	if c.BitOps() == 0 {
		t.Fatal("budget metering recorded no bit ops")
	}
	if c.BitOps() > 1<<40 {
		t.Fatal("run exceeded the budget without tripping")
	}
}

func TestTaskHookPanicIsIsolated(t *testing.T) {
	p := testPoly(10)
	res, err := FindRoots(p, Options{Mu: 16, Workers: 4, TaskHook: func(seq int64) {
		if seq == 5 {
			panic("injected task fault")
		}
	}})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	checkPartial(t, res, err, err)
}

func TestPartialStatsOnMidRunCancel(t *testing.T) {
	// Cancel at the solve boundary: the remainder stage completed, so
	// the partial stats must show it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := FindRoots(testPoly(12), Options{Mu: 16, Ctx: ctx, OnPhase: func(ph string) {
		if ph == "solve" {
			cancel()
		}
	}})
	checkPartial(t, res, err, ErrCanceled)
	if res.Stats.Precompute <= 0 {
		t.Fatalf("partial Stats.Precompute = %v, want > 0", res.Stats.Precompute)
	}
	if res.Degree != 12 {
		t.Fatalf("partial Degree = %d", res.Degree)
	}
}

// checkNoGoroutineLeak retries because pool workers and watchdogs shut
// down asynchronously after FindRoots returns.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNoGoroutineLeakAcrossFailureModes(t *testing.T) {
	p := testPoly(10)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Canceled at the solve phase.
		ctx, cancel := context.WithCancel(context.Background())
		_, _ = FindRoots(p, Options{Mu: 16, Workers: 4, Ctx: ctx, OnPhase: func(ph string) {
			if ph == "solve" {
				cancel()
			}
		}})
		cancel()
		// Budget-tripped.
		_, _ = FindRoots(p, Options{Mu: 16, Workers: 2, MaxBitOps: 1000})
		// Task panic.
		_, _ = FindRoots(p, Options{Mu: 16, Workers: 2, TaskHook: func(seq int64) {
			if seq == 2 {
				panic("fault")
			}
		}})
		// Healthy run, for contrast.
		if _, err := FindRoots(p, Options{Mu: 16, Workers: 2}); err != nil {
			t.Fatalf("healthy run failed: %v", err)
		}
	}
	checkNoGoroutineLeak(t, before)
}
