// Command rootd serves root-finding over HTTP: POST /v1/solve accepts
// a polynomial (ascending decimal coefficients) or a symmetric integer
// matrix and returns µ-approximations of all real roots/eigenvalues as
// exact rationals plus decimal renderings. Solves run on a shared pool
// with bounded per-solve parallelism behind cost-model admission
// control, per-tenant rate limits, fair queuing, and a deduplicating
// LRU result cache; /debug/requests, /debug/traces and /debug/tenants
// are the server's views of its requests, and /metrics and
// /debug/pprof expose the telemetry hub.
// SIGINT/SIGTERM drain gracefully: in-flight solves finish under
// -drain-timeout, then the process exits.
//
// Every solve is traced (at most 4096 spans per lane): the trace is
// the one record of the solve's phases and of which worker ran which
// task. Each trace is summarized once, after the solve, into
// rootd_parallel_efficiency, rootd_serial_fraction, rootd_phase_seconds
// and the phaseSeconds of the leading request's /debug/requests row,
// and tail-sampled: it is retained in /debug/traces (the 64 most
// recent) when the solve errored, exceeded its budget, ran slower than
// the rolling p95, parallelized below an efficiency of 0.25, or
// carried an X-Debug-Trace header. Retained traces download as Chrome
// trace-event JSON from /debug/traces/<seq>; -no-trace turns tracing
// off. Per-tenant usage (bit ops, solve seconds, cache hits,
// rejections, retained traces) accumulates in /debug/tenants and the
// rootd_tenant_* metric families; the per-tenant latency histograms
// are labelled with the same ledger rows.
//
// Every request carries an end-to-end ID: the client's X-Request-Id
// header (or a generated one), echoed in the response header and body
// and stamped on every observability sink the request touches — the
// structured log (the request's own record, and the start,
// budget-trip and finish records of a solve it led, the finish record
// with a failed solve's error), latency-histogram exemplars on
// /metrics, its /debug/requests row (every request has one, refused
// ones included), and trace spans. One ID recovers a request from any
// of them.
//
// Example:
//
//	rootd -addr 127.0.0.1:8361 &
//	curl -s http://127.0.0.1:8361/v1/solve \
//	  -H 'X-Request-Id: demo-1' \
//	  -d '{"poly":{"coeffs":["-2","0","1"]},"precision":64}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"realroots/internal/mp"
	"realroots/internal/server"
	"realroots/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "rootd:", err)
		os.Exit(2)
	}
}

// run starts the server and blocks until ctx is canceled (signal), then
// drains. Split from main so tests drive it with a cancelable context.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("rootd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8361", "listen address (host:port; port 0 picks one)")
		concurrent   = fs.Int("concurrent", 0, "concurrent solve slots (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 256, "waiting-request capacity across tenants")
		workers      = fs.Int("workers", 2, "scheduler workers per solve")
		maxInflight  = fs.Int64("max-inflight-bitops", 0, "admission budget: estimated bit ops in flight (0 = 1e12)")
		solveBitOps  = fs.Int64("solve-max-bitops", 0, "per-solve bit-operation ceiling (0 = unlimited)")
		solveTimeout = fs.Duration("solve-timeout", 60*time.Second, "per-solve wall-time ceiling")
		precision    = fs.Uint("precision", 32, "default output precision µ")
		profileName  = fs.String("profile", "paper", "default arithmetic profile: paper|fast")
		rate         = fs.Float64("rate", 0, "per-tenant requests/second (0 = unlimited)")
		burst        = fs.Float64("burst", 8, "per-tenant burst size")
		cacheSize    = fs.Int("cache", 256, "LRU result-cache entries (-1 disables)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "in-flight deadline on shutdown")
		quiet        = fs.Bool("quiet", false, "suppress the structured solve log")
		noTrace      = fs.Bool("no-trace", false, "disable always-on solve tracing (tail sampling and efficiency gauges stop)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := mp.ParseProfile(*profileName)
	if err != nil {
		return err
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}
	srv := server.New(server.Config{
		MaxConcurrent:     *concurrent,
		MaxQueue:          *queue,
		WorkersPerSolve:   *workers,
		MaxInflightBitOps: *maxInflight,
		SolveMaxBitOps:    *solveBitOps,
		SolveTimeout:      *solveTimeout,
		DefaultPrecision:  *precision,
		DefaultProfile:    profile,
		RatePerSec:        *rate,
		Burst:             *burst,
		CacheEntries:      *cacheSize,
		DisableTracing:    *noTrace,
		Telemetry:         telemetry.New(telemetry.Config{Logger: logger}),
	})
	running, err := srv.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rootd: listening on %s\n", running.URL())

	<-ctx.Done()
	fmt.Fprintf(stderr, "rootd: draining (deadline %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := running.Close(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stderr, "rootd: drained, bye")
	return nil
}
