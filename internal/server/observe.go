package server

import (
	"time"

	"realroots/internal/core"
	"realroots/internal/trace"
)

// Post-solve observability: every flight-leader solve ends here, where
// the leader's solve facts are written on its request record (finish
// charges them to the tenant ledger), the recorded trace's per-phase
// walls go to rootd_phase_seconds and the leader's /debug/requests row,
// and the trace is offered to the tail sampler. Only a trace the
// sampler keeps is summarized into the paper's quantities (parallel
// efficiency, serial fraction) for its /debug/traces entry.

// traceMaxSpans caps each lane of a solve's always-on tracer. The cap
// bounds a request's trace memory whatever the solve's size; spans
// beyond it are counted as dropped, not recorded.
const traceMaxSpans = 4096

// observeSolve digests one completed flight-leader solve. It runs on
// both the success and error paths (error traces are exactly the ones
// worth retaining), after the solver has fully stopped — the tracer is
// quiescent and safe to read — and on the leader's own goroutine, which
// owns the record's solve facts.
func (s *Server) observeSolve(tracer *trace.Tracer, p solveParams, start time.Time, elapsed time.Duration, bitOps int64, err error) {
	p.rec.solved, p.rec.solveSeconds, p.rec.bitOps = true, elapsed.Seconds(), bitOps
	if tracer == nil {
		return
	}
	walls := tracer.PhaseWalls()
	phases := make([]PhaseTime, len(walls))
	for i, ph := range walls {
		s.phaseHist.With(ph.Name).Observe(ph.Wall.Seconds(), p.req.RequestID)
		phases[i] = PhaseTime{Name: ph.Name, Seconds: ph.Wall.Seconds()}
	}
	p.rec.update(func(row *RequestSnapshot) { row.PhaseSeconds = phases })

	// Tail sampling: the sampler sees every solve (its rolling latency
	// quantile needs the full population) and returns a retention
	// reason only for the interesting tail.
	s.traces.noteSeen()
	outcome := core.RunOutcome(err)
	reason := s.tail.consider(traceInfo{
		forced:  p.req.ForceTrace,
		outcome: outcome,
		seconds: elapsed.Seconds(),
	})
	if reason == "" {
		return
	}
	sum := tracer.Summarize()
	s.traces.add(RetainedTrace{
		RequestID:      p.req.RequestID,
		Tenant:         p.req.Tenant,
		Outcome:        string(outcome),
		Reason:         reason,
		Start:          start,
		WallSeconds:    elapsed.Seconds(),
		Workers:        p.workers,
		Efficiency:     sum.Efficiency(p.workers),
		SerialFraction: sum.SerialFraction,
		Spans:          tracer.SpanCount(),
		DroppedSpans:   tracer.DroppedSpans(),
	}, tracer)
	s.traceKept.Add(reason, 1)
	p.rec.retained = true
}
