// Package telemetry is the always-on operational counterpart to the
// per-run tracing of internal/trace. Where a Tracer records every span
// of one solve into unbounded lanes (for offline analysis of a single
// run), telemetry is built to stay enabled in a long-running process.
// The hub is two sinks:
//
//   - a structured event log on log/slog with per-solve lifecycle
//     events (run ID, start, budget exhaustion, and a finish record
//     that carries a failed run's error);
//   - a metrics Registry accumulating per-run metrics.Counters
//     snapshots and scheduler statistics, rendered in Prometheus text
//     exposition format, on which servers layered over the solver
//     (rootd) register their own families.
//
// A solve's phase spans and task timelines are the tracer's record;
// rootd's per-request views (/debug/requests, /debug/traces,
// /debug/tenants) belong to internal/server.
//
// Everything is nil-safe in the style of metrics.Counters and
// trace.Tracer: a nil *Telemetry (and the nil *Run it hands out) makes
// every call a zero-allocation no-op, so the solver can be plumbed
// unconditionally and pay nothing when telemetry is disabled.
//
// The package depends only on internal/metrics and internal/sched (for
// its PoolStats), neither of which imports it, so core feeds it
// without an import cycle.
package telemetry

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// Outcome classifies how a solve run ended. The values are the label
// set of the realroots_solves_total exposition family.
type Outcome string

const (
	OutcomeOK       Outcome = "ok"
	OutcomeCanceled Outcome = "canceled"
	OutcomeDeadline Outcome = "deadline"
	OutcomeBudget   Outcome = "budget"
	OutcomePanic    Outcome = "panic"
	OutcomeError    Outcome = "error"
)

// Outcomes lists every outcome in the stable order used by the
// Prometheus exposition.
var Outcomes = []Outcome{
	OutcomeOK, OutcomeCanceled, OutcomeDeadline, OutcomeBudget, OutcomePanic, OutcomeError,
}

// Config configures a telemetry hub.
type Config struct {
	// Logger receives the structured solve log, and rootd's request
	// log when the hub serves a server. nil disables logging; the
	// registry still runs.
	Logger *slog.Logger
}

// Telemetry is the hub tying the sinks together. One hub serves a
// whole process: runs from concurrent solves interleave safely.
type Telemetry struct {
	logger *slog.Logger
	reg    *Registry
	runSeq atomic.Uint64
}

// New creates a telemetry hub.
func New(cfg Config) *Telemetry {
	return &Telemetry{logger: cfg.Logger, reg: newRegistry()}
}

// Logger returns the hub's structured logger (nil for a nil hub or a
// hub without one).
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil {
		return nil
	}
	return t.logger
}

// Registry returns the hub's metrics registry (nil for a nil hub).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// RunInfo describes a solve run to Start: the entry point ("core" for
// the parallel pipeline, "sturm" for the sequential baseline), the
// problem shape, and — when the run serves a tracked request — the
// request ID that every sink should carry.
type RunInfo struct {
	Kind    string
	Degree  int
	Mu      uint
	Workers int
	// RequestID, if non-empty, scopes the run to one external request:
	// every slog record gains a requestId attribute, so one grep over
	// the log reconstructs the request.
	RequestID string
}

// Start opens a new solve run and emits its start event. On a nil hub
// it returns a nil *Run, on which every method is a zero-allocation
// no-op.
func (t *Telemetry) Start(info RunInfo) *Run {
	if t == nil {
		return nil
	}
	r := &Run{
		ID:        t.runSeq.Add(1),
		tel:       t,
		kind:      info.Kind,
		requestID: info.RequestID,
		start:     time.Now(),
	}
	t.reg.runStarted()
	if l := t.logger; l != nil {
		attrs := []slog.Attr{
			slog.Uint64("run", r.ID),
			slog.String("kind", info.Kind),
			slog.Int("degree", info.Degree),
			slog.Uint64("mu", uint64(info.Mu)),
			slog.Int("workers", info.Workers),
		}
		attrs = r.appendRequestID(attrs)
		l.LogAttrs(context.Background(), slog.LevelInfo, "solve start", attrs...)
	}
	return r
}

// Run is one solve's handle into the hub. It is created by Start and
// closed by Finish. A nil *Run is valid everywhere and records nothing.
type Run struct {
	// ID is the process-unique run identifier (1-based).
	ID        uint64
	tel       *Telemetry
	kind      string
	requestID string
	start     time.Time

	// pool is the final scheduler snapshot reported via SchedStats
	// (zero for a run without a pool); written by the run's control
	// goroutine only.
	pool sched.PoolStats
}

// appendRequestID appends the requestId attribute when the run is
// request-scoped.
func (r *Run) appendRequestID(attrs []slog.Attr) []slog.Attr {
	if r.requestID == "" {
		return attrs
	}
	return append(attrs, slog.String("requestId", r.requestID))
}

// BudgetExhausted records the bit-operation budget tripping. It may be
// called from any goroutine (the arithmetic operation that crosses the
// limit fires it).
func (r *Run) BudgetExhausted(bitOps int64) {
	if r == nil {
		return
	}
	if l := r.tel.logger; l != nil {
		l.LogAttrs(context.Background(), slog.LevelWarn, "budget exhausted",
			r.appendRequestID([]slog.Attr{slog.Uint64("run", r.ID), slog.Int64("bitOps", bitOps)})...)
	}
}

// SchedStats reports the run's final scheduler statistics; call it
// before Finish (typically from a defer capturing pool.Stats()).
func (r *Run) SchedStats(s sched.PoolStats) {
	if r == nil {
		return
	}
	r.pool = s
}

// Finish closes the run: it emits the finish log record and folds the run's totals (outcome, wall time, roots, bit-operation
// metrics, scheduler stats) into the registry. err is the run's error,
// nil on success; the log record of a failed run carries its text, so
// a task panic's value reaches the log.
func (r *Run) Finish(o Outcome, err error, roots int, bitOps int64, rep metrics.Report) {
	if r == nil {
		return
	}
	elapsed := time.Since(r.start)
	r.tel.reg.finishRun(o, elapsed, roots, bitOps, rep, r.pool)
	if l := r.tel.logger; l != nil {
		level := slog.LevelInfo
		switch o {
		case OutcomeOK:
		case OutcomePanic:
			level = slog.LevelError
		default:
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.Uint64("run", r.ID),
			slog.String("kind", r.kind),
			slog.String("outcome", string(o)),
			slog.Int("roots", roots),
			slog.Int64("bitOps", bitOps),
			slog.Duration("elapsed", elapsed),
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		l.LogAttrs(context.Background(), level, "solve finish", r.appendRequestID(attrs)...)
	}
}
