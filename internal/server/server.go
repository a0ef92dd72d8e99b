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
	// no spans are recorded, the tail sampler retains nothing,
	// rootd_phase_seconds stays empty and request rows carry no
	// phaseSeconds. Admission does not depend on it.
	DisableTracing bool
	// Telemetry is the hub whose registry carries the rootd_* families
	// next to the solver's, whose handler serves /metrics and pprof, and
	// whose logger receives the solve log and the request log; nil
	// creates a logger-less hub. The request views are the server's own.
	Telemetry *telemetry.Telemetry
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

	// The request views: /debug/requests, /debug/traces (kept by the
	// tail sampler) and /debug/tenants.
	requests *requestLog
	traces   *traceStore
	tail     *tailSampler
	tenants  *tenantLedger

	// rootd_* metric families, registered on the telemetry hub's
	// registry so one /metrics endpoint renders solver and server
	// families with shared HELP/TYPE dedup and validator coverage.
	reqCodes  *telemetry.CounterVec   // rootd_requests_total{code}
	cacheEvts *telemetry.CounterVec   // rootd_cache_events_total{event}
	reqHist   *telemetry.HistogramVec // rootd_request_seconds{tenant}
	queueHist *telemetry.HistogramVec // rootd_queue_wait_seconds{tenant}
	solveHist *telemetry.HistogramVec // rootd_solve_seconds{method}
	phaseHist *telemetry.HistogramVec // rootd_phase_seconds{phase}
	traceKept *telemetry.CounterVec   // rootd_traces_retained_total{reason}
}

// New creates a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		queue:    newFairQueue(cfg.MaxConcurrent, cfg.MaxQueue),
		limiter:  newRateLimiter(cfg.RatePerSec, cfg.Burst, cfg.Now),
		requests: newRequestLog(),
		traces:   newTraceStore(),
		tail:     newTailSampler(),
		tenants:  newTenantLedger(),
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
// one hub accumulate into the same families; the state gauges and the
// rootd_tenant_* families rebind to the latest server.
func (s *Server) registerMetrics(reg *telemetry.Registry) {
	s.reqCodes = reg.RegisterCounterVec("rootd_requests_total",
		"Solve requests by outcome code.", "code",
		append([]string{"ok"}, errorCodes...))
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
		[]string{ReasonForced, ReasonError, ReasonSlow})
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
	s.tenants.registerFamilies(reg)
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

// Handler returns the server's HTTP handler:
//
//	POST /v1/solve          solve a polynomial or symmetric matrix
//	GET  /healthz           liveness ("ok", or 503 while draining)
//	GET  /debug/requests    request inspector (HTML; ?format=json)
//	GET  /debug/traces      tail-sampled traces (HTML; ?format=json; /<seq> for Chrome JSON)
//	GET  /debug/tenants     per-tenant usage ledger (HTML; ?format=json)
//	GET  /metrics           Prometheus exposition (solver + rootd families)
//	GET  /debug/pprof/      runtime profiles
//	GET  /                  a plain-text index
//
// /metrics and /debug/pprof/ are the telemetry hub's; the rootd_*
// families appear there because New registers them on its registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		serveView(w, r, requestsTmpl, s.requests.dump())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		serveView(w, r, tracesTmpl, s.traces.dump())
	})
	mux.HandleFunc("/debug/traces/", s.handleTrace)
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		serveView(w, r, tenantsTmpl, s.tenants.dump())
	})
	hub := s.cfg.Telemetry.Handler()
	mux.Handle("/metrics", hub)
	mux.Handle("/debug/pprof/", hub)
	mux.HandleFunc("/", handleIndex)
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

// handleSolve serves POST /v1/solve. Every request is one record from
// here to finish, whether it is refused or answered.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// A request arriving while the server drains is refused below
	// without queuing behind Drain's write lock.
	if !s.draining.Load() {
		s.inflight.RLock()
		defer s.inflight.RUnlock()
	}
	id := r.Header.Get("X-Request-Id")
	idErr := ValidateRequestID(id)
	if idErr != nil || id == "" {
		id = newRequestID()
	}
	rec := s.requests.begin(id)
	var resp *SolveResponse
	err := idErr
	if err == nil {
		w.Header().Set("X-Request-Id", id)
		resp, err = s.decodeAndSolve(w, r, rec)
	}
	s.finish(rec, resp, err)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeAndSolve reads, decodes and rate-limits one HTTP request and
// solves it.
func (s *Server) decodeAndSolve(w http.ResponseWriter, r *http.Request, rec *request) (*SolveResponse, error) {
	if r.Method != http.MethodPost {
		return nil, badRequest("use POST")
	}
	if s.draining.Load() {
		return nil, errDraining
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	req, err := DecodeSolveRequest(body)
	if err != nil {
		return nil, err
	}
	req.RequestID = rec.row.ID
	// X-Debug-Trace (any non-empty value) forces the solve's trace into
	// the retained ring regardless of outcome or latency; it only takes
	// effect when this request leads the solve (cache hits re-serve the
	// cached result without running, so there is nothing to trace).
	req.ForceTrace = r.Header.Get("X-Debug-Trace") != ""
	p := s.describe(rec, req)
	if ok, retry := s.limiter.Allow(req.Tenant); !ok {
		return nil, &RequestError{
			Code:       CodeRateLimited,
			Msg:        fmt.Sprintf("tenant %q is over its request rate", req.Tenant),
			retryAfter: retry,
		}
	}
	return s.solve(r.Context(), p)
}

// Solve runs one decoded request through admission, queuing, dedup,
// and the solver, returning the response or a *RequestError. It is the
// handler's core, exported for in-process clients (the harness
// loadtest uses it when no network server is wanted); its requests are
// recorded in the views, the request metrics and the request log like
// the handler's. It refuses a tenant ID the decoder would refuse, such
// as the name of a synthetic ledger row, with a *RequestError of code
// bad_request, recorded like a body the handler could not decode.
func (s *Server) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	if req.RequestID == "" {
		req.RequestID = newRequestID() // in-process callers may skip the handler
	}
	rec := s.requests.begin(req.RequestID)
	var resp *SolveResponse
	err := checkTenant(req.Tenant)
	if err == nil {
		resp, err = s.solve(ctx, s.describe(rec, req))
	}
	s.finish(rec, resp, err)
	return resp, err
}

// describe resolves a decoded request's solve parameters against the
// server's defaults and caps, and writes them on its record's row.
func (s *Server) describe(rec *request, req *SolveRequest) solveParams {
	p := solveParams{
		req:     req,
		rec:     rec,
		mu:      req.Precision,
		profile: s.cfg.DefaultProfile,
		method:  parseMethod(req.Method),
		workers: req.Workers,
		timeout: s.cfg.SolveTimeout,
		maxBits: s.cfg.SolveMaxBitOps,
	}
	if p.mu == 0 {
		p.mu = s.cfg.DefaultPrecision
	}
	if req.Profile != "" {
		p.profile, _ = mp.ParseProfile(req.Profile) // validated at decode
	}
	if p.workers == 0 || p.workers > s.cfg.WorkersPerSolve {
		p.workers = s.cfg.WorkersPerSolve
	}
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < p.timeout {
			p.timeout = d
		}
	}
	if req.MaxBitOps > 0 && (p.maxBits == 0 || req.MaxBitOps < p.maxBits) {
		p.maxBits = req.MaxBitOps
	}
	p.estimate = model.EstimateBitOps(req.degree(), req.coeffBits(), p.mu)
	rec.update(func(row *RequestSnapshot) {
		row.Tenant = req.Tenant
		row.Method = p.method.String()
		row.Profile = p.profile.String()
		row.Degree = req.degree()
		row.Mu = p.mu
		row.EstimatedBitOps = p.estimate
	})
	return p
}

// solve answers a described request from the cache, from an identical
// in-flight solve, or by leading the solve itself.
func (s *Server) solve(ctx context.Context, p solveParams) (*SolveResponse, error) {
	key := p.req.cacheKey(p.mu, p.profile, p.method.String())
	resp, outcome, err := s.cache.Do(ctx, key, func() (*SolveResponse, error) {
		return s.runSolve(ctx, p)
	})
	p.rec.update(func(row *RequestSnapshot) { row.CacheOutcome = outcome })
	if err != nil {
		return nil, err
	}
	// Always shallow-copy before answering: the response object is (or
	// may become) the shared read-only cache entry, and RequestID is
	// per-requester — a joiner must see its own ID, not the leader's.
	c := *resp
	c.Cached = outcome != "miss"
	c.RequestID = p.req.RequestID
	return &c, nil
}

// finish closes a request's record. It is the one writer of the
// request's /debug/requests row, its tenant ledger fold, the request
// metrics (rootd_requests_total, rootd_request_seconds,
// rootd_queue_wait_seconds) and the request log record.
func (s *Server) finish(rec *request, resp *SolveResponse, err error) {
	elapsed := time.Since(rec.start)
	re := &RequestError{Code: "ok"}
	if err != nil {
		re = AsRequestError(err)
	}
	row := s.requests.finish(rec, re.Code, elapsed, resp)
	tenant := s.tenants.fold(rec, row)
	s.reqCodes.Add(re.Code, 1)
	s.reqHist.With(tenant).Observe(elapsed.Seconds(), row.ID)
	if rec.solved {
		s.queueHist.With(tenant).Observe(row.QueueWaitSecs, row.ID)
	}
	l := s.cfg.Telemetry.Logger()
	if l == nil {
		return
	}
	if err != nil {
		l.LogAttrs(context.Background(), slog.LevelWarn, "request failed",
			slog.String("requestId", row.ID),
			slog.String("tenant", row.Tenant),
			slog.String("code", re.Code),
			slog.String("error", re.Msg))
		return
	}
	l.LogAttrs(context.Background(), slog.LevelInfo, "request ok",
		slog.String("requestId", row.ID),
		slog.String("tenant", row.Tenant),
		slog.Int("degree", resp.Degree),
		slog.Bool("cached", resp.Cached),
		slog.Duration("elapsed", elapsed))
}

// solveParams is a decoded request, its record, and the solve
// parameters resolved against the server's defaults and caps.
type solveParams struct {
	req      *SolveRequest
	rec      *request
	mu       uint
	profile  mp.Profile
	method   methodT
	workers  int
	timeout  time.Duration
	maxBits  int64
	estimate int64
}

// runSolve is the flight leader's path: reserve the request's model
// estimate against the admission budget, wait for a slot, and run the
// solver. Its context is the server's base context, not the
// originating request's — once admitted a solve runs to completion
// (the result is cached, so the work is kept even if the first
// requester is gone), except under drain cancellation.
func (s *Server) runSolve(reqCtx context.Context, p solveParams) (*SolveResponse, error) {
	if !s.reserve(p.estimate) {
		return nil, &RequestError{
			Code: CodeOverloaded,
			Msg: fmt.Sprintf("estimated cost %d bit ops would oversubscribe the in-flight budget %d",
				p.estimate, s.cfg.MaxInflightBitOps),
		}
	}
	defer s.reserved.Add(-p.estimate)

	// Queue waiting is bounded by the requester's context (a gone
	// client should not hold a queue position) and by the server
	// lifetime.
	waitCtx, waitCancel := context.WithCancel(reqCtx)
	defer waitCancel()
	stopWait := context.AfterFunc(s.baseCtx, waitCancel)
	defer stopWait()
	waitStart := time.Now()
	if err := s.queue.Acquire(waitCtx, p.req.Tenant); err != nil {
		if s.baseCtx.Err() != nil {
			return nil, errDraining
		}
		return nil, err
	}
	wait := time.Since(waitStart).Seconds()
	p.rec.update(func(row *RequestSnapshot) { row.QueueWaitSecs = wait })
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
		RequestID: p.req.RequestID,
		OnPhase:   p.rec.setPhase,
		Tracer:    tracer,
	}
	var counters metrics.Counters
	opts.Counters = &counters
	if s.cfg.Faults != nil {
		opts.TaskHook = s.cfg.Faults(s.solveSeq.Add(1), solveCtx, cancel)
	}

	start := time.Now()
	res, err := p.req.solve(opts)
	elapsed := time.Since(start)
	s.solveHist.With(p.method.String()).Observe(elapsed.Seconds(), p.req.RequestID)
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
	return &SolveResponse{
		Roots:           out,
		Degree:          p.req.degree(),
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
// still run alone rather than being rejected forever. The check
// compares est with the headroom left rather than forming cur+est, so
// a saturated estimate (model.EstimateBitOps caps at math.MaxInt64)
// cannot wrap the sum.
func (s *Server) reserve(est int64) bool {
	for {
		cur := s.reserved.Load()
		if cur > 0 && est > s.cfg.MaxInflightBitOps-cur {
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

// errDraining refuses a request while the server drains.
var errDraining = &RequestError{Code: CodeDraining, Msg: "server is draining"}

// writeError writes err as a typed JSON error with its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	re := AsRequestError(err)
	status := statusFor(re.Code)
	var retrySec int64
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// A retryable status always advertises at least one second: the
		// limiter's backoff can be microseconds when the next token is
		// nearly accrued, and a "Retry-After: 0" (or an absent header
		// with retryAfterSeconds 0 in the body) turns a well-behaved
		// client's honor-the-header loop into a busy retry storm.
		retrySec = max(1, int64(math.Ceil(re.retryAfter.Seconds())))
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
