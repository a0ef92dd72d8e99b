package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"realroots/internal/core"
	"realroots/internal/metrics"
	"realroots/internal/model"
	"realroots/internal/mp"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// Config configures a solve server. The zero value is usable: every
// field has a production default.
type Config struct {
	// MaxConcurrent is the number of solve slots — solves running at
	// once (default GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds the waiting tickets across all tenants; beyond it
	// requests fail fast with queue_full (default 256).
	MaxQueue int
	// WorkersPerSolve caps each solve's intra-solve scheduler workers;
	// requests may ask for fewer (default 2).
	WorkersPerSolve int
	// MaxInflightBitOps is the admission budget: the sum of estimated
	// bit operations over admitted, unfinished solves. A request whose
	// estimate would push the sum past the budget is rejected with 429
	// overloaded — unless nothing is in flight, so oversized requests
	// are never starved forever. 0 defaults to 1e12.
	MaxInflightBitOps int64
	// SolveMaxBitOps is the per-solve bit-operation ceiling; a request's
	// own maxBitOps may only tighten it. 0 means unlimited.
	SolveMaxBitOps int64
	// SolveTimeout bounds each solve's wall time; a request's timeoutMs
	// may only tighten it (default 60s).
	SolveTimeout time.Duration
	// DefaultPrecision is µ when a request leaves precision unset
	// (default 32).
	DefaultPrecision uint
	// DefaultProfile is the arithmetic profile when a request leaves
	// profile unset (default the paper's schoolbook profile).
	DefaultProfile mp.Profile
	// RatePerSec and Burst configure the per-tenant token bucket;
	// RatePerSec ≤ 0 disables rate limiting.
	RatePerSec float64
	Burst      float64
	// CacheEntries is the LRU result-cache capacity (default 256;
	// negative disables caching).
	CacheEntries int
	// DisableTracing turns off always-on per-solve tracing entirely:
	// no spans are recorded, the tail sampler retains nothing, and the
	// trace-derived gauges (parallel efficiency, serial fraction) stop
	// updating. Admission still works from the static cost model.
	DisableTracing bool
	// Telemetry is the hub serving /metrics, the /debug inspectors and
	// the solve log; nil creates a logger-less hub.
	Telemetry *telemetry.Telemetry
	// Logger receives request-level logs; nil disables them.
	Logger *slog.Logger
	// Now is the rate limiter's clock (tests); nil means time.Now.
	Now func() time.Time
	// Faults, if non-nil, builds a per-solve scheduler task hook from
	// the solve's process-wide sequence number, its context, and its
	// cancel function — the fault-injection seam the stress suite
	// drives with internal/faultinject plans. Hooks fire only on
	// parallel solves (workers ≥ 2).
	Faults func(seq uint64, ctx context.Context, cancel context.CancelFunc) func(int64)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.WorkersPerSolve <= 0 {
		c.WorkersPerSolve = 2
	}
	if c.MaxInflightBitOps <= 0 {
		c.MaxInflightBitOps = 1e12
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.DefaultPrecision == 0 {
		c.DefaultPrecision = 32
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New(telemetry.Config{})
	}
	return c
}

// Server is the rootd solve service: an http.Handler running solves on
// a shared pool behind admission control, per-tenant rate limits, fair
// queuing, and a deduplicating result cache. Create with New, serve
// its Handler, stop with Drain.
type Server struct {
	cfg     Config
	queue   *fairQueue
	limiter *rateLimiter
	cache   *resultCache

	baseCtx    context.Context // canceled to abort all in-flight solves
	baseCancel context.CancelFunc

	draining atomic.Bool
	inflight sync.RWMutex // held shared by in-flight requests; Drain takes it exclusively

	reserved atomic.Int64 // admitted estimated bit ops
	active   atomic.Int64 // solves currently holding a slot
	solveSeq atomic.Uint64

	// rootd_* metric families, registered on the telemetry hub's
	// registry so one /metrics endpoint renders solver and server
	// families with shared HELP/TYPE dedup and validator coverage.
	reqCodes   *telemetry.CounterVec   // rootd_requests_total{code}
	reqSeconds *telemetry.Float64      // rootd_request_seconds_total
	cacheEvts  *telemetry.CounterVec   // rootd_cache_events_total{event}
	reqHist    *telemetry.HistogramVec // rootd_request_seconds{tenant}
	queueHist  *telemetry.HistogramVec // rootd_queue_wait_seconds{tenant}
	solveHist  *telemetry.HistogramVec // rootd_solve_seconds{method}
	phaseHist  *telemetry.HistogramVec // rootd_phase_seconds{phase}
	traceKept  *telemetry.CounterVec   // rootd_traces_retained_total{reason}

	// spanOverhead accumulates the estimated wall cost of always-on
	// span recording (span count × calibrated per-span cost), so the
	// tracing tax is itself observable; spanCost is the per-span cost
	// in seconds measured once at startup.
	spanOverhead *telemetry.Float64 // rootd_span_overhead_seconds
	spanCost     float64

	// Algorithm-health gauges: how the paper's §4 cost model fared on
	// the most recent completed solve.
	costRatio telemetry.Float64 // measured/estimated bit ops
	peakBits  telemetry.Float64 // peak operand bit-length bucket floor

	// Trace-derived efficiency gauges (§5's quantities as live
	// metrics): the most recent solve's measured parallel efficiency
	// and serial fraction, plus the EWMAs the admission charge learns
	// from (see chargedEstimate).
	parEff       telemetry.Float64 // rootd_parallel_efficiency
	serialFrac   telemetry.Float64 // rootd_serial_fraction
	learnedEff   telemetry.Float64 // EWMA of measured parallel efficiency
	learnedRatio telemetry.Float64 // EWMA of measured/estimated bit ops
}

// New creates a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newFairQueue(cfg.MaxConcurrent, cfg.MaxQueue),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now),
	}
	// The admission corrections start neutral (×1) and learn from
	// completed solves; see observeSolve.
	s.learnedRatio.Store(1)
	s.learnedEff.Store(1)
	if !cfg.DisableTracing {
		s.spanCost = trace.EstimateSpanCost().Seconds()
	}
	s.registerMetrics(cfg.Telemetry.Registry())
	s.cache = newResultCache(cfg.CacheEntries, func(event string) {
		s.cacheEvts.Add(event, 1)
	})
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// registerMetrics installs the rootd_* families on the hub's registry.
// Counter and histogram registration is idempotent, so servers sharing
// one hub accumulate into the same families; the state gauges rebind to
// the latest server.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	s.reqCodes = reg.RegisterCounterVec("rootd_requests_total",
		"Solve requests by outcome code.", "code",
		append([]string{"ok"}, errorCodes...))
	s.reqSeconds = reg.RegisterFloatCounter("rootd_request_seconds_total",
		"Total request wall time in seconds.")
	s.cacheEvts = reg.RegisterCounterVec("rootd_cache_events_total",
		"Result-cache events.", "event", cacheEventNames)
	s.reqHist = reg.RegisterHistogramVec("rootd_request_seconds",
		"End-to-end request latency in seconds by tenant.",
		telemetry.SecondsBuckets, "tenant")
	s.queueHist = reg.RegisterHistogramVec("rootd_queue_wait_seconds",
		"Admission-queue wait in seconds by tenant (flight leaders only).",
		telemetry.SecondsBuckets, "tenant")
	s.solveHist = reg.RegisterHistogramVec("rootd_solve_seconds",
		"Core solve wall time in seconds by interval-refinement method (flight leaders only).",
		telemetry.SecondsBuckets, "method")
	s.phaseHist = reg.RegisterHistogramVec("rootd_phase_seconds",
		"Per-pipeline-phase wall time in seconds, derived from the always-on solve traces (flight leaders only).",
		telemetry.SecondsBuckets, "phase")
	s.traceKept = reg.RegisterCounterVec("rootd_traces_retained_total",
		"Solve traces kept by the tail sampler, by retention reason.", "reason",
		[]string{trace.ReasonForced, trace.ReasonError, trace.ReasonSlow, trace.ReasonLowEfficiency})
	s.spanOverhead = reg.RegisterFloatCounter("rootd_span_overhead_seconds",
		"Estimated wall seconds spent recording trace spans (span count x calibrated per-span cost) — the always-on tracing tax.")
	reg.RegisterGaugeFunc("rootd_solve_queue_depth",
		"Requests waiting for a solve slot.",
		func() float64 { return float64(s.queue.Waiting()) })
	reg.RegisterGaugeFunc("rootd_active_solves",
		"Solves currently holding a slot.",
		func() float64 { return float64(s.active.Load()) })
	reg.RegisterGaugeFunc("rootd_reserved_bitops",
		"Estimated bit operations of admitted unfinished solves.",
		func() float64 { return float64(s.reserved.Load()) })
	reg.RegisterGaugeFunc("rootd_draining",
		"Whether the server is draining (1) or serving (0).",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.RegisterGaugeFunc("rootd_model_cost_ratio",
		"Measured/estimated bit-ops ratio of the most recent completed solve (cost-model health; ~1 means the paper's schoolbook estimate is honest).",
		s.costRatio.Load)
	reg.RegisterGaugeFunc("rootd_peak_operand_bits",
		"Peak operand bit-length (bucket lower bound) of the most recent completed solve.",
		s.peakBits.Load)
	reg.RegisterGaugeFunc("rootd_parallel_efficiency",
		"Measured parallel efficiency (speedup/workers, the paper's E_P) of the most recent parallel solve.",
		s.parEff.Load)
	reg.RegisterGaugeFunc("rootd_serial_fraction",
		"Measured Amdahl serial fraction of the most recent traced solve.",
		s.serialFrac.Load)
	reg.RegisterGaugeFunc("rootd_learned_cost_ratio",
		"EWMA of measured/estimated bit-ops over completed solves; the admission charge multiplies estimates by it (clamped).",
		s.learnedRatio.Load)
	reg.RegisterGaugeFunc("rootd_learned_efficiency",
		"EWMA of measured parallel efficiency over completed parallel solves; the admission charge divides by it for parallel requests (clamped).",
		s.learnedEff.Load)
	reg.RegisterTenantFamilies(s.cfg.Telemetry.Tenants())
}

// tenantLabel is a tenant's label value on the per-tenant histograms:
// the name of its ledger row, so the histogram series and the ledger
// rows share one cap (telemetry.MaxTenants) and one overflow row.
func (s *Server) tenantLabel(tenant string) string {
	return s.cfg.Telemetry.Tenants().RowName(tenant)
}

// newRequestID generates a server-side request ID for clients that did
// not send X-Request-Id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-unavailable"
	}
	return "r" + hex.EncodeToString(b[:])
}

var cacheEventNames = []string{"hit", "join", "miss", "evict"}

// Telemetry returns the server's telemetry hub.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.cfg.Telemetry }

// Handler returns the server's HTTP handler:
//
//	POST /v1/solve   solve a polynomial or symmetric matrix
//	GET  /healthz    liveness ("ok", or 503 while draining)
//	GET  /metrics    Prometheus exposition (solver + rootd families)
//	GET  /debug/...  request, trace and tenant inspectors, and pprof
//
// /metrics and /debug/* are served by the telemetry hub; the rootd_*
// families appear there because New registers them on the hub's
// registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/", s.cfg.Telemetry.Handler())
	return mux
}

// Drain gracefully shuts the server down: new requests are rejected
// with 503 draining, in-flight solves run to completion until ctx
// ends, and whatever is still running at that point is canceled and
// waited for. After Drain returns no request goroutines remain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	stop := context.AfterFunc(ctx, s.baseCancel)
	defer stop()
	// Taking the write lock waits for every in-flight request to
	// release its read lock — either by finishing or by observing the
	// base-context cancellation at ctx's deadline.
	s.inflight.Lock()
	s.inflight.Unlock()
	s.baseCancel()
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-Id")
	if err := ValidateRequestID(reqID); err != nil {
		s.fail(w, start, "", newRequestID(), err)
		return
	}
	if reqID == "" {
		reqID = newRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	if r.Method != http.MethodPost {
		s.fail(w, start, "", reqID, &RequestError{Code: CodeBadRequest, Msg: "use POST"})
		return
	}
	if s.draining.Load() {
		s.fail(w, start, "", reqID, &RequestError{Code: CodeDraining, Msg: "server is draining"})
		return
	}
	s.inflight.RLock()
	defer s.inflight.RUnlock()
	if s.draining.Load() { // re-check under the lock: Drain may have won the race
		s.fail(w, start, "", reqID, &RequestError{Code: CodeDraining, Msg: "server is draining"})
		return
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.fail(w, start, "", reqID, badRequest("reading body: %v", err))
		return
	}
	req, err := DecodeSolveRequest(body)
	if err != nil {
		s.fail(w, start, "", reqID, err)
		return
	}
	req.RequestID = reqID
	// X-Debug-Trace (any non-empty value) forces the solve's trace into
	// the retained ring regardless of outcome or latency; it only takes
	// effect when this request leads the solve (cache hits re-serve the
	// cached result without running, so there is nothing to trace).
	req.ForceTrace = r.Header.Get("X-Debug-Trace") != ""
	if ok, retry := s.limiter.Allow(req.Tenant); !ok {
		// Rate-limited requests never reach Solve, so their ledger
		// accounting happens here.
		led := s.cfg.Telemetry.Tenants()
		led.AddRequest(req.Tenant)
		led.AddRejection(req.Tenant)
		s.failRetry(w, start, req.Tenant, reqID, &RequestError{
			Code: CodeRateLimited,
			Msg:  fmt.Sprintf("tenant %q is over its request rate", req.Tenant),
		}, retry)
		return
	}

	resp, err := s.Solve(r.Context(), req)
	if err != nil {
		s.fail(w, start, req.Tenant, reqID, err)
		return
	}
	elapsed := time.Since(start)
	s.reqCodes.Add("ok", 1)
	s.reqSeconds.Add(elapsed.Seconds())
	s.reqHist.With(s.tenantLabel(req.Tenant)).Observe(elapsed.Seconds(), reqID)
	if l := s.cfg.Logger; l != nil {
		l.LogAttrs(r.Context(), slog.LevelInfo, "request ok",
			slog.String("requestId", reqID),
			slog.String("tenant", req.Tenant),
			slog.Int("degree", resp.Degree),
			slog.Bool("cached", resp.Cached),
			slog.Duration("elapsed", elapsed))
	}
	writeJSON(w, http.StatusOK, resp)
}

// Solve runs one decoded request through admission, queuing, dedup,
// and the solver, returning the response or a *RequestError. It is the
// handler's core, exported for in-process clients (the harness
// loadtest uses it when no network server is wanted).
func (s *Server) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	mu := req.Precision
	if mu == 0 {
		mu = s.cfg.DefaultPrecision
	}
	profile := s.cfg.DefaultProfile
	if req.Profile != "" {
		profile, _ = mp.ParseProfile(req.Profile) // validated at decode
	}
	method := parseMethod(req.Method)
	workers := req.Workers
	if workers == 0 || workers > s.cfg.WorkersPerSolve {
		workers = s.cfg.WorkersPerSolve
	}
	timeout := s.cfg.SolveTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	maxBits := s.cfg.SolveMaxBitOps
	if req.MaxBitOps > 0 && (maxBits == 0 || req.MaxBitOps < maxBits) {
		maxBits = req.MaxBitOps
	}
	estimate := model.EstimateBitOps(req.degree(), req.coeffBits(), mu)
	if req.RequestID == "" {
		req.RequestID = newRequestID() // in-process callers may skip the handler
	}

	tr := s.cfg.Telemetry.Requests().Start(telemetry.RequestInfo{
		ID:              req.RequestID,
		Tenant:          req.Tenant,
		Kind:            "solve",
		Method:          method.String(),
		Profile:         profile.String(),
		Degree:          req.degree(),
		Mu:              mu,
		EstimatedBitOps: estimate,
	})

	led := s.cfg.Telemetry.Tenants()
	led.AddRequest(req.Tenant)

	key := req.cacheKey(mu, profile, method.String())
	resp, outcome, err := s.cache.Do(ctx, key, func() (*SolveResponse, error) {
		return s.runSolve(ctx, req, solveParams{
			mu: mu, profile: profile, method: method,
			workers: workers, timeout: timeout, maxBits: maxBits,
			estimate: estimate, tenant: req.Tenant,
			requestID: req.RequestID, tracker: tr,
			forceTrace: req.ForceTrace,
		})
	})
	tr.SetCacheOutcome(outcome)
	if err != nil {
		code := AsRequestError(err).Code
		switch code {
		case CodeOverloaded, CodeQueueFull, CodeDraining:
			led.AddRejection(req.Tenant)
		default:
			led.AddError(req.Tenant)
		}
		tr.Finish(code)
		return nil, err
	}
	if outcome != "miss" {
		led.AddCacheHit(req.Tenant)
	}
	if resp.Metrics != nil {
		// For cache hits and joins these are the original solve's
		// numbers — the cost-model verdict belongs to the result, not
		// to the request that happened to ask first.
		tr.SetSolve(time.Duration(resp.ElapsedSeconds*float64(time.Second)),
			resp.BitOps, resp.Metrics.PeakBits())
	}
	tr.Finish("ok")
	// Always shallow-copy before answering: the response object is (or
	// may become) the shared read-only cache entry, and RequestID is
	// per-requester — a joiner must see its own ID, not the leader's.
	c := *resp
	c.Cached = outcome != "miss"
	c.RequestID = req.RequestID
	return &c, nil
}

type solveParams struct {
	mu         uint
	profile    mp.Profile
	method     methodT
	workers    int
	timeout    time.Duration
	maxBits    int64
	estimate   int64
	tenant     string
	requestID  string
	tracker    *telemetry.ActiveRequest
	forceTrace bool
}

// runSolve is the flight leader's path: reserve the admission budget,
// wait for a slot, and run the solver. Its context is the server's
// base context, not the originating request's — once admitted a solve
// runs to completion (the result is cached, so the work is kept even
// if the first requester is gone), except under drain cancellation.
func (s *Server) runSolve(reqCtx context.Context, req *SolveRequest, p solveParams) (*SolveResponse, error) {
	// The charge is the model estimate corrected by what the server has
	// measured on past solves (learned cost ratio and, for parallel
	// requests, learned efficiency) — admission learns from observed
	// speedup instead of trusting the static §4 model forever.
	charge := s.chargedEstimate(p.estimate, p.workers)
	if !s.reserve(charge) {
		return nil, &RequestError{
			Code: CodeOverloaded,
			Msg: fmt.Sprintf("charged cost %d bit ops (estimate %d) would oversubscribe the in-flight budget %d",
				charge, p.estimate, s.cfg.MaxInflightBitOps),
		}
	}
	defer s.reserved.Add(-charge)

	// Queue waiting is bounded by the requester's context (a gone
	// client should not hold a queue position) and by the server
	// lifetime.
	waitCtx, waitCancel := context.WithCancel(reqCtx)
	defer waitCancel()
	stopWait := context.AfterFunc(s.baseCtx, waitCancel)
	defer stopWait()
	waitStart := time.Now()
	if err := s.queue.Acquire(waitCtx, p.tenant); err != nil {
		if s.baseCtx.Err() != nil {
			return nil, &RequestError{Code: CodeDraining, Msg: "server is draining"}
		}
		return nil, err
	}
	wait := time.Since(waitStart)
	p.tracker.SetQueueWait(wait)
	s.queueHist.With(s.tenantLabel(p.tenant)).Observe(wait.Seconds(), p.requestID)
	defer s.queue.Release()
	s.active.Add(1)
	defer s.active.Add(-1)

	solveCtx, cancel := context.WithTimeout(s.baseCtx, p.timeout)
	defer cancel()

	// Always-on tracing: every solve records spans into a bounded
	// tracer; observeSolve decides afterwards whether to keep them.
	var tracer *trace.Tracer
	if !s.cfg.DisableTracing {
		tracer = trace.NewLimited(traceMaxSpans)
	}

	opts := core.Options{
		Mu:        p.mu,
		Workers:   p.workers,
		Method:    p.method,
		Profile:   p.profile,
		Ctx:       solveCtx,
		MaxBitOps: p.maxBits,
		Telemetry: s.cfg.Telemetry,
		RequestID: p.requestID,
		OnPhase:   p.tracker.SetPhase,
		Tracer:    tracer,
	}
	var counters metrics.Counters
	opts.Counters = &counters
	if s.cfg.Faults != nil {
		opts.TaskHook = s.cfg.Faults(s.solveSeq.Add(1), solveCtx, cancel)
	}

	start := time.Now()
	res, err := req.solve(opts)
	elapsed := time.Since(start)
	s.solveHist.With(p.method.String()).Observe(elapsed.Seconds(), p.requestID)
	s.observeSolve(tracer, p, start, elapsed, counters.BitOps(), err)
	if err != nil {
		return nil, mapSolveError(err)
	}

	digits := decimalDigits(p.mu)
	out := make([]RootJSON, len(res.Roots))
	for i, root := range res.Roots {
		out[i] = RootJSON{
			Value:        root.Rat().RatString(),
			Decimal:      root.Decimal(digits),
			Multiplicity: res.Mults[i],
		}
	}
	rep := counters.Snapshot()
	if p.estimate > 0 {
		s.costRatio.Store(float64(counters.BitOps()) / float64(p.estimate))
	}
	s.peakBits.Store(float64(rep.PeakBits()))
	return &SolveResponse{
		Roots:           out,
		Degree:          req.degree(),
		Distinct:        len(out),
		Precision:       p.mu,
		Profile:         p.profile.String(),
		Method:          p.method.String(),
		ElapsedSeconds:  elapsed.Seconds(),
		BitOps:          counters.BitOps(),
		EstimatedBitOps: p.estimate,
		Metrics:         &rep,
	}, nil
}

// decimalDigits is the response's decimal rendering width for
// precision µ: ⌈µ·log₁₀2⌉ plus one guard digit.
func decimalDigits(mu uint) int {
	return int(math.Ceil(float64(mu)*math.Log10(2))) + 1
}

// reserve charges est against the in-flight admission budget. A
// request is admitted if the budget holds it — or if nothing else is
// reserved, so a single request costlier than the whole budget can
// still run alone rather than being rejected forever.
func (s *Server) reserve(est int64) bool {
	for {
		cur := s.reserved.Load()
		if cur > 0 && cur+est > s.cfg.MaxInflightBitOps {
			return false
		}
		if s.reserved.CompareAndSwap(cur, cur+est) {
			return true
		}
	}
}

// mapSolveError converts the solver's typed errors to request errors.
func mapSolveError(err error) error {
	var pe *sched.PanicError
	switch {
	case errors.Is(err, core.ErrNotAllReal):
		return &RequestError{Code: CodeNotAllReal, Msg: err.Error()}
	case errors.Is(err, core.ErrBudgetExceeded):
		return &RequestError{Code: CodeBudget, Msg: err.Error()}
	case errors.Is(err, core.ErrDeadline):
		return &RequestError{Code: CodeDeadline, Msg: err.Error()}
	case errors.Is(err, core.ErrCanceled):
		return &RequestError{Code: CodeCanceled, Msg: err.Error()}
	case errors.As(err, &pe):
		return &RequestError{Code: CodeInternal, Msg: err.Error()}
	case errors.Is(err, core.ErrInvalidOptions):
		return &RequestError{Code: CodeBadRequest, Msg: err.Error()}
	default:
		return &RequestError{Code: CodeInternal, Msg: err.Error()}
	}
}

// statusFor maps an error code to its HTTP status.
func statusFor(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotSymmetric, CodeNotAllReal, CodeBudget:
		return http.StatusUnprocessableEntity
	case CodeRateLimited, CodeOverloaded, CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDraining, CodeCanceled:
		return http.StatusServiceUnavailable
	case CodeDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, start time.Time, tenant, reqID string, err error) {
	re := AsRequestError(err)
	retry := time.Duration(0)
	if code := statusFor(re.Code); code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		retry = time.Second
	}
	s.failRetry(w, start, tenant, reqID, re, retry)
}

func (s *Server) failRetry(w http.ResponseWriter, start time.Time, tenant, reqID string, re *RequestError, retry time.Duration) {
	elapsed := time.Since(start)
	s.reqCodes.Add(re.Code, 1)
	s.reqSeconds.Add(elapsed.Seconds())
	s.reqHist.With(s.tenantLabel(tenant)).Observe(elapsed.Seconds(), reqID)
	if l := s.cfg.Logger; l != nil {
		l.LogAttrs(context.Background(), slog.LevelWarn, "request failed",
			slog.String("requestId", reqID),
			slog.String("tenant", tenant),
			slog.String("code", re.Code),
			slog.String("error", re.Msg))
	}
	status := statusFor(re.Code)
	var retrySec int64
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// A retryable status always advertises at least one second: the
		// limiter's backoff can be microseconds when the next token is
		// nearly accrued, and a "Retry-After: 0" (or an absent header
		// with retryAfterSeconds 0 in the body) turns a well-behaved
		// client's honor-the-header loop into a busy retry storm.
		retrySec = int64(math.Ceil(retry.Seconds()))
		if retrySec < 1 {
			retrySec = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retrySec, 10))
	} else if retry > 0 {
		retrySec = int64(math.Ceil(retry.Seconds()))
		w.Header().Set("Retry-After", strconv.FormatInt(retrySec, 10))
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{
		Code:              re.Code,
		Message:           re.Msg,
		RetryAfterSeconds: retrySec,
	}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Running is a live rootd listener started by ListenAndServe.
type Running struct {
	srv *Server
	ln  net.Listener
	hs  *http.Server
}

// ListenAndServe starts the server on addr (host:port; port 0 picks an
// ephemeral port) and serves in a background goroutine until Close.
func (s *Server) ListenAndServe(addr string) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return &Running{srv: s, ln: ln, hs: hs}, nil
}

// Addr returns the listener's address (e.g. "127.0.0.1:8361").
func (r *Running) Addr() string { return r.ln.Addr().String() }

// URL returns the server's base URL.
func (r *Running) URL() string { return "http://" + r.Addr() }

// Close drains the solve pool under ctx and shuts the listener down.
func (r *Running) Close(ctx context.Context) error {
	drainErr := r.srv.Drain(ctx)
	if err := r.hs.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
