package server

import (
	"math"
	"time"

	"realroots/internal/core"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// Post-solve observability: every flight-leader solve ends here, where
// the leader's solve facts are written on its request record (finish
// charges them to the tenant ledger), the recorded trace is condensed
// into the paper's quantities (parallel efficiency, serial fraction,
// per-phase walls, the last also on the leader's /debug/requests row)
// and fed to the tail sampler for retention, and the EWMAs the
// admission charge learns from are updated.

// traceMaxSpans caps each lane of a solve's always-on tracer. The cap
// bounds a request's trace memory whatever the solve's size; spans
// beyond it are counted as dropped, not recorded.
const traceMaxSpans = 4096

// EWMA and clamp tuning for the learned admission corrections.
const (
	// ewmaAlpha is the new-observation weight: the correction reflects
	// roughly the last 1/alpha solves.
	ewmaAlpha = 0.2
	// corrMin/corrMax clamp the combined admission correction so a
	// burst of outlier solves can neither swing admission wide open
	// nor slam it shut.
	corrMin = 0.25
	corrMax = 4.0
)

// observeSolve digests one completed flight-leader solve. It runs on
// both the success and error paths (error traces are exactly the ones
// worth retaining), after the solver has fully stopped — the tracer is
// quiescent and safe to read — and on the leader's own goroutine, which
// owns the record's solve facts.
func (s *Server) observeSolve(tracer *trace.Tracer, p solveParams, start time.Time, elapsed time.Duration, bitOps int64, err error) {
	p.rec.solved, p.rec.solveSeconds, p.rec.bitOps = true, elapsed.Seconds(), bitOps

	outcome := core.RunOutcome(err)
	if err == nil && p.estimate > 0 && bitOps > 0 {
		s.updateEWMA(&s.learnedRatio, float64(bitOps)/float64(p.estimate))
	}

	if tracer == nil {
		return
	}
	spans := tracer.SpanCount()
	dropped := tracer.DroppedSpans()
	s.spanOverhead.Add(float64(spans+dropped) * s.spanCost)

	sum := tracer.Summarize()
	eff := sum.Efficiency(p.workers)
	if sum.Wall > 0 {
		s.serialFrac.Store(sum.SerialFraction)
		if p.workers > 1 {
			s.parEff.Store(eff)
			if err == nil {
				s.updateEWMA(&s.learnedEff, eff)
			}
		}
	}
	phases := make([]PhaseTime, len(sum.Phases))
	for i, ph := range sum.Phases {
		s.phaseHist.With(ph.Name).Observe(ph.Wall.Seconds(), p.req.RequestID)
		phases[i] = PhaseTime{Name: ph.Name, Seconds: ph.Wall.Seconds()}
	}
	p.rec.update(func(row *RequestSnapshot) { row.PhaseSeconds = phases })

	// Tail sampling: the sampler sees every solve (its rolling latency
	// quantile needs the full population) and returns a retention
	// reason only for the interesting tail.
	s.traces.noteSeen()
	reason := s.tail.consider(traceInfo{
		forced:     p.req.ForceTrace,
		outcome:    outcome,
		seconds:    elapsed.Seconds(),
		workers:    p.workers,
		efficiency: eff,
	})
	if reason == "" {
		return
	}
	s.traces.add(RetainedTrace{
		RequestID:      p.req.RequestID,
		Tenant:         p.req.Tenant,
		Outcome:        string(outcome),
		Reason:         reason,
		Start:          start,
		WallSeconds:    elapsed.Seconds(),
		Workers:        p.workers,
		Efficiency:     eff,
		SerialFraction: sum.SerialFraction,
		Spans:          spans,
		DroppedSpans:   dropped,
	}, tracer)
	s.traceKept.Add(reason, 1)
	p.rec.retained = true
}

// updateEWMA folds one observation into a learned correction,
// discarding non-finite observations (a zero estimate or a pathological
// trace must not poison the filter).
func (s *Server) updateEWMA(f *telemetry.Float64, obs float64) {
	if math.IsNaN(obs) || math.IsInf(obs, 0) || obs <= 0 {
		return
	}
	f.Store((1-ewmaAlpha)*f.Load() + ewmaAlpha*obs)
}

// chargedEstimate corrects the static §4 model estimate by measured
// reality before charging it against the in-flight budget: the learned
// measured/estimated bit-ops ratio fixes systematic model bias, and
// for parallel requests the learned efficiency inflates the charge
// when solves parallelize worse than assumed (a low-efficiency solve
// holds its slot longer, so it effectively costs more admission
// headroom). The combined correction is clamped to [corrMin, corrMax];
// responses still report the uncorrected model estimate.
func (s *Server) chargedEstimate(estimate int64, workers int) int64 {
	corr := s.learnedRatio.Load()
	if workers > 1 {
		if eff := s.learnedEff.Load(); eff > 0 {
			corr /= math.Max(eff, corrMin)
		}
	}
	corr = math.Min(math.Max(corr, corrMin), corrMax)
	charged := int64(float64(estimate) * corr)
	if charged < 1 {
		charged = 1
	}
	return charged
}
