package telemetry

import (
	"sync"
	"testing"

	"realroots/internal/trace"
)

func TestTailSamplerPriorities(t *testing.T) {
	s := NewTailSampler()
	cases := []struct {
		name string
		info TraceInfo
		want string
	}{
		{"forced beats error", TraceInfo{Forced: true, Outcome: OutcomeError}, trace.ReasonForced},
		{"error", TraceInfo{Outcome: OutcomeBudget}, trace.ReasonError},
		{"panic is an error", TraceInfo{Outcome: OutcomePanic}, trace.ReasonError},
		{"low efficiency", TraceInfo{Outcome: OutcomeOK, Workers: 4, Efficiency: 0.1}, trace.ReasonLowEfficiency},
		{"sequential never low-eff", TraceInfo{Outcome: OutcomeOK, Workers: 1, Efficiency: 0}, ""},
		{"healthy parallel dropped", TraceInfo{Outcome: OutcomeOK, Workers: 4, Efficiency: 0.9}, ""},
	}
	for _, tc := range cases {
		if got := s.Consider(tc.info); got != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTailSamplerSlowAfterWarmup(t *testing.T) {
	s := NewTailSampler()

	// During warmup nothing classifies slow, even outliers.
	if got := s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 100}); got != "" {
		t.Fatalf("first request retained as %q before any threshold exists", got)
	}
	if _, ok := s.Threshold(); ok {
		t.Fatal("threshold trusted with one observation")
	}

	// Fill past warmup with ~1ms solves.
	for i := 0; i < tailWarmup+8; i++ {
		s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 0.001})
	}
	threshold, ok := s.Threshold()
	if !ok {
		t.Fatal("threshold still untrusted past warmup")
	}
	if threshold <= 0 || threshold > 0.1 {
		t.Fatalf("threshold %v seconds, want small positive", threshold)
	}
	if got := s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 5}); got != trace.ReasonSlow {
		t.Errorf("5s outlier against ~1ms window classified %q, want slow", got)
	}
	if got := s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 0.0001}); got != "" {
		t.Errorf("fast solve retained as %q", got)
	}
}

func TestTailSamplerWindowRotation(t *testing.T) {
	s := NewTailSampler()
	// Fill a full window of slow solves, then a regime change to fast
	// ones: after the second rotation the threshold must reflect the
	// fast window, not the stale slow one.
	for i := 0; i < tailWindow; i++ {
		s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 1})
	}
	th1, ok := s.Threshold()
	if !ok || th1 < 0.5 {
		t.Fatalf("threshold after slow window = %v (ok=%v), want ~1s", th1, ok)
	}
	for i := 0; i < tailWindow; i++ {
		s.Consider(TraceInfo{Outcome: OutcomeOK, Seconds: 0.001})
	}
	th2, ok := s.Threshold()
	if !ok || th2 >= th1 {
		t.Fatalf("threshold did not follow the regime change: %v -> %v", th1, th2)
	}
}

func TestTailSamplerNilSafe(t *testing.T) {
	var s *TailSampler
	if got := s.Consider(TraceInfo{Forced: true}); got != "" {
		t.Errorf("nil sampler retained %q", got)
	}
	if th, ok := s.Threshold(); th != 0 || ok {
		t.Error("nil sampler reported a threshold")
	}
}

// TestTailSamplerConcurrent races Consider (the admit path, rotating
// windows under load) against Threshold reads and a trace.Store
// admit/evict cycle — the full tail-sampling pipeline under -race.
func TestTailSamplerConcurrent(t *testing.T) {
	s := NewTailSampler()
	store := trace.NewStore(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*tailWindow; i++ {
				info := TraceInfo{Outcome: OutcomeOK, Seconds: float64(i%100) / 1000}
				if i%97 == 0 {
					info.Outcome = OutcomeError
				}
				store.NoteSeen()
				if reason := s.Consider(info); reason != "" {
					store.Add(trace.RetainedTrace{
						RequestID: "r",
						Outcome:   string(info.Outcome),
						Reason:    reason,
					}, nil)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Threshold()
			if err := store.Dump().Validate(); err != nil {
				t.Errorf("mid-run store dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := store.Dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ByReason[trace.ReasonError] == 0 {
		t.Error("no error traces retained across 8 windows of injected errors")
	}
}
