package telemetry

import (
	"sync"

	"realroots/internal/trace"
)

// Tail-based trace sampling. Every solve is traced into a bounded
// buffer; when it completes the sampler decides — with the outcome,
// latency, and measured efficiency in hand — whether the trace is
// interesting enough to retain. This is the inversion of head
// sampling: instead of guessing up front which 1% of requests to
// record, record everything cheaply and keep only the tail that an
// operator would actually open.

// Sampler tuning.
const (
	// tailQuantile marks a solve slow when its latency exceeds this
	// rolling quantile of recent solve latencies.
	tailQuantile = 0.95
	// tailMinEfficiency marks a parallel solve interesting when its
	// measured efficiency (speedup/workers) falls below this floor.
	tailMinEfficiency = 0.25
	// tailWindow is how many observations each rolling-quantile window
	// holds before rotating.
	tailWindow = 512
	// tailWarmup is the minimum observations before the latency
	// threshold is trusted; below it nothing is classified slow (the
	// first requests of a fresh process are all "slow" relative to an
	// empty histogram, which would retain everything).
	tailWarmup = 32
)

// TailSampler decides which completed traces to keep. It maintains a
// rolling latency quantile over two rotating fixed-bucket windows:
// observations land in the current window, and once it fills the
// previous window's quantile becomes the threshold — so the threshold
// always reflects a full recent window, never a half-empty one. All
// methods are safe for concurrent use; nil no-ops (keep nothing).
type TailSampler struct {
	mu   sync.Mutex
	cur  *Histogram // filling
	prev *Histogram // full, provides the threshold
	curN int
}

// NewTailSampler creates a sampler.
func NewTailSampler() *TailSampler {
	return &TailSampler{cur: NewHistogram(SecondsBuckets)}
}

// TraceInfo is what the sampler knows about a completed solve.
type TraceInfo struct {
	// Forced is the explicit X-Debug-Trace override: always retain.
	Forced bool
	// Outcome is the solve outcome; anything but OutcomeOK retains.
	Outcome Outcome
	// Seconds is the solve's wall time.
	Seconds float64
	// Workers is the parallel worker count (0/1 = sequential; the
	// efficiency floor only applies to parallel solves).
	Workers int
	// Efficiency is the measured parallel efficiency
	// (trace.Summary.Efficiency).
	Efficiency float64
}

// Consider classifies one completed solve: it feeds the latency into
// the rolling window and returns the retention reason ("" = do not
// retain). Priority order: forced > error > slow > low efficiency, so
// a forced trace of a failing solve still reads "forced" and counting
// by reason stays unambiguous.
func (s *TailSampler) Consider(info TraceInfo) (reason string) {
	if s == nil {
		return ""
	}
	slow := s.observe(info.Seconds)
	switch {
	case info.Forced:
		return trace.ReasonForced
	case info.Outcome != OutcomeOK:
		return trace.ReasonError
	case slow:
		return trace.ReasonSlow
	case info.Workers > 1 && info.Efficiency < tailMinEfficiency:
		return trace.ReasonLowEfficiency
	}
	return ""
}

// Threshold returns the current slow-latency threshold in seconds and
// whether it is trustworthy yet (false during warmup).
func (s *TailSampler) Threshold() (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.thresholdLocked()
}

func (s *TailSampler) thresholdLocked() (float64, bool) {
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
func (s *TailSampler) observe(seconds float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	threshold, ok := s.thresholdLocked()
	slow := ok && seconds > threshold
	s.rotateLocked(seconds)
	return slow
}

func (s *TailSampler) rotateLocked(seconds float64) {
	s.cur.Observe(seconds, "")
	s.curN++
	if s.curN >= tailWindow {
		s.prev = s.cur
		s.cur = NewHistogram(SecondsBuckets)
		s.curN = 0
	}
}
