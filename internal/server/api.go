// Package server implements rootd, the root-finding solve service: an
// HTTP/JSON front door over the solver pipeline that runs many
// concurrent solves on a shared pool with bounded intra-solve
// parallelism. Production concerns live here, not in the solver:
//
//   - strict request decoding with size limits (DecodeSolveRequest);
//   - admission control from the §4 cost model — each request's
//     bit-operation cost is estimated from its degree, coefficient size
//     and µ before anything runs, and requests that would
//     oversubscribe the in-flight budget are rejected with 429 +
//     Retry-After;
//   - per-tenant token-bucket rate limits and round-robin fair queuing
//     onto the solve slots;
//   - request deduplication and an LRU result cache keyed by a
//     canonical polynomial/matrix hash (µ, profile, and method are part
//     of the key; worker count deliberately is not — results are
//     bit-identical for any worker count);
//   - graceful drain: Drain stops admission and lets in-flight solves
//     finish under a deadline, canceling whatever remains;
//   - one record per request, from arrival to finish, which one
//     function folds into the server's views (/debug/requests, the
//     tail-sampled /debug/traces, the /debug/tenants ledger), its
//     request metrics and its log record;
//   - the shared internal/telemetry hub, whose registry renders the
//     rootd_* families with the solver's on /metrics and whose logger
//     takes the solve log and the request log.
//
// cmd/rootd is the thin binary over this package; the harness loadtest
// experiment drives it for latency/throughput goldens.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/core"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
)

// Decode-time limits. Anything beyond them is a CodeBadRequest: the
// decoder is the outermost trust boundary and must stay panic-free on
// arbitrary bytes (FuzzSolveRequestDecode pins this).
const (
	// MaxBodyBytes bounds the request body; the HTTP handler enforces
	// it with http.MaxBytesReader before the decoder sees the bytes.
	MaxBodyBytes = 1 << 20
	// MaxDegree bounds the polynomial degree (and matrix dimension —
	// the characteristic polynomial of an n×n matrix has degree n).
	MaxDegree = 256
	// MaxCoeffDigits bounds each coefficient's decimal length.
	MaxCoeffDigits = 8192
	// MaxMatrixDim bounds symmetric-matrix inputs, far below MaxDegree:
	// the charpoly takes O(n³) word operations per prime, and the
	// number of primes grows with the entries' width and with n.
	MaxMatrixDim = 64
	// MaxPrecision bounds the requested µ.
	MaxPrecision = 4096
	// MaxWorkers bounds the per-solve worker count a request may ask
	// for (the server additionally clamps to its own configured cap).
	MaxWorkers = 64
	// MaxTenantLen bounds the tenant identifier.
	MaxTenantLen = 64
	// MaxRequestIDLen bounds a client-supplied X-Request-Id.
	MaxRequestIDLen = 128
	// MaxTimeoutMS bounds the per-request solve timeout (1 hour).
	MaxTimeoutMS = 3_600_000
)

// ValidateRequestID checks a client-supplied X-Request-Id: at most
// MaxRequestIDLen bytes of [A-Za-z0-9._-] (the tenant charset), so IDs
// pass verbatim into log records, exposition exemplars, and trace args
// without escaping surprises.
func ValidateRequestID(id string) error {
	if len(id) > MaxRequestIDLen {
		return badRequest("X-Request-Id is %d bytes (limit %d)", len(id), MaxRequestIDLen)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return badRequest("X-Request-Id contains %q (want [A-Za-z0-9._-])", c)
		}
	}
	return nil
}

// Error codes carried in ErrorResponse and used as the code label of
// the rootd_requests_total metric family.
const (
	CodeBadRequest   = "bad_request"     // 400: malformed or out-of-limits request
	CodeNotSymmetric = "not_symmetric"   // 422: matrix input is not symmetric
	CodeNotAllReal   = "not_all_real"    // 422: polynomial has non-real roots
	CodeBudget       = "budget_exceeded" // 422: per-solve MaxBitOps budget tripped
	CodeRateLimited  = "rate_limited"    // 429: tenant token bucket empty
	CodeOverloaded   = "overloaded"      // 429: estimated cost oversubscribes the in-flight bit-ops budget
	CodeQueueFull    = "queue_full"      // 429: fair queue at capacity
	CodeDraining     = "draining"        // 503: server is draining for shutdown
	CodeCanceled     = "canceled"        // 503: solve canceled (client gone or drain deadline)
	CodeDeadline     = "deadline"        // 504: solve timeout expired
	CodeInternal     = "internal"        // 500: isolated solver panic or unexpected error
)

// errorCodes lists every error code in stable order (metric label
// emission; "ok" is prepended for the request counter).
var errorCodes = []string{
	CodeBadRequest, CodeNotSymmetric, CodeNotAllReal, CodeBudget,
	CodeRateLimited, CodeOverloaded, CodeQueueFull,
	CodeDraining, CodeCanceled, CodeDeadline, CodeInternal,
}

// RequestError is the typed error every request-level failure maps to.
type RequestError struct {
	Code string // one of the Code* constants
	Msg  string

	// retryAfter is the rate limiter's backoff; other retryable codes
	// advertise the one-second floor.
	retryAfter time.Duration
}

func (e *RequestError) Error() string { return "server: " + e.Code + ": " + e.Msg }

func badRequest(format string, args ...any) *RequestError {
	return &RequestError{Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// SolveRequest is the JSON body of POST /v1/solve. Exactly one of Poly
// and Matrix must be set. Coefficients are decimal strings so requests
// round-trip arbitrary-precision integers exactly.
type SolveRequest struct {
	// Tenant identifies the caller for rate limiting and fair queuing;
	// empty means "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// Poly asks for the real roots of a polynomial (ascending-degree
	// decimal coefficient strings; the input must have all roots real).
	Poly *PolyInput `json:"poly,omitempty"`
	// Matrix asks for the eigenvalues of a symmetric integer matrix via
	// its characteristic polynomial — the paper's own workload.
	Matrix *MatrixInput `json:"matrix,omitempty"`
	// Precision is µ; 0 uses the server default (32).
	Precision uint `json:"precision,omitempty"`
	// Workers bounds this solve's intra-solve parallelism; 0 uses the
	// server default, and the server clamps to its configured cap.
	Workers int `json:"workers,omitempty"`
	// Profile is the arithmetic profile name: "paper"/"schoolbook" or
	// "fast" (empty = server default).
	Profile string `json:"profile,omitempty"`
	// Method is the interval-refinement method: "hybrid", "bisection",
	// or "newton" (empty = hybrid).
	Method string `json:"method,omitempty"`
	// TimeoutMS bounds the solve's wall time in milliseconds; 0 uses
	// the server default.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// MaxBitOps bounds the solve's bit operations; 0 uses the server's
	// per-solve ceiling. The tighter of the two applies.
	MaxBitOps int64 `json:"maxBitOps,omitempty"`

	// RequestID is the request's end-to-end observability ID, taken
	// from the X-Request-Id header (or generated) by the HTTP handler —
	// never from the JSON body, so it is excluded from decoding and
	// from the result-cache key. In-process callers of Solve may set it
	// directly.
	RequestID string `json:"-"`

	// ForceTrace asks the tail sampler to retain this solve's trace
	// unconditionally. Like RequestID it travels out-of-band (the
	// X-Debug-Trace header, set by the HTTP handler) and is excluded
	// from the cache key; it only takes effect when this request leads
	// the solve, since cache hits run nothing worth tracing.
	ForceTrace bool `json:"-"`

	// Decoded payload, filled by DecodeSolveRequest.
	coeffs []*big.Int
	rows   [][]int64
}

// PolyInput is the polynomial form of a solve request.
type PolyInput struct {
	// Coeffs holds decimal coefficient strings in ascending degree
	// order: Coeffs[i] multiplies x^i. The last entry must be non-zero.
	Coeffs []string `json:"coeffs"`
}

// MatrixInput is the symmetric-matrix (charpoly) form.
type MatrixInput struct {
	// Rows holds the square matrix row by row.
	Rows [][]int64 `json:"rows"`
}

// RootJSON is one root in a SolveResponse.
type RootJSON struct {
	// Value is the exact µ-approximation as a rational "num/den".
	Value string `json:"value"`
	// Decimal renders Value with ⌈µ·log10 2⌉ digits.
	Decimal string `json:"decimal"`
	// Multiplicity is the root's multiplicity in the input.
	Multiplicity int `json:"multiplicity"`
}

// SolveResponse is the 200 body of POST /v1/solve.
type SolveResponse struct {
	Roots     []RootJSON `json:"roots"`
	Degree    int        `json:"degree"`
	Distinct  int        `json:"distinct"`
	Precision uint       `json:"precision"`
	Profile   string     `json:"profile"`
	Method    string     `json:"method"`
	// ElapsedSeconds is the solve wall time (the original solve's for
	// cached responses).
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// BitOps is the solve's measured bit-operation count.
	BitOps int64 `json:"bitOps"`
	// EstimatedBitOps is the admission-control estimate the request was
	// charged against the in-flight budget.
	EstimatedBitOps int64 `json:"estimatedBitOps"`
	// Cached reports that the result was served from the result cache
	// or deduplicated onto another in-flight identical request.
	Cached bool `json:"cached"`
	// RequestID echoes the request's X-Request-Id (the header is set
	// too). On cached/deduplicated responses this is the asking
	// request's ID, not the ID of the request whose solve produced the
	// result — solver-side telemetry (solve log, trace spans)
	// carries the original leader's ID.
	RequestID string `json:"requestId,omitempty"`
	// Metrics is the solve's per-phase arithmetic report; loadtest
	// clients fold it into bench-grid/v1 cells.
	Metrics *metrics.Report `json:"metrics,omitempty"`
}

// ErrorResponse is the non-200 body of every endpoint.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the typed error.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int64 `json:"retryAfterSeconds,omitempty"`
}

// DecodeSolveRequest strictly parses and validates a solve request
// body. Every failure — malformed JSON, unknown fields, out-of-limit
// sizes, non-symmetric matrices, unparsable coefficients — returns a
// *RequestError with a 400-class code and never panics (the contract
// FuzzSolveRequestDecode enforces). On success the parsed payload is
// cached on the returned request for Poly/Rows.
func DecodeSolveRequest(data []byte) (*SolveRequest, error) {
	if len(data) > MaxBodyBytes {
		return nil, badRequest("body is %d bytes (limit %d)", len(data), MaxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SolveRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid JSON: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after JSON body")
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (r *SolveRequest) validate() error {
	if len(r.Tenant) > MaxTenantLen {
		return badRequest("tenant is %d bytes (limit %d)", len(r.Tenant), MaxTenantLen)
	}
	for _, c := range r.Tenant {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return badRequest("tenant contains %q (want [A-Za-z0-9._-])", c)
		}
	}
	if (r.Poly == nil) == (r.Matrix == nil) {
		return badRequest("exactly one of poly and matrix must be set")
	}
	if r.Precision > MaxPrecision {
		return badRequest("precision %d exceeds limit %d", r.Precision, MaxPrecision)
	}
	if r.Workers < 0 || r.Workers > MaxWorkers {
		return badRequest("workers %d out of range [0,%d]", r.Workers, MaxWorkers)
	}
	if r.Profile != "" {
		if _, err := mp.ParseProfile(r.Profile); err != nil {
			return badRequest("unknown profile %q", r.Profile)
		}
	}
	switch r.Method {
	case "", "hybrid", "bisection", "newton":
	default:
		return badRequest("unknown method %q", r.Method)
	}
	if r.TimeoutMS < 0 || r.TimeoutMS > MaxTimeoutMS {
		return badRequest("timeoutMs %d out of range [0,%d]", r.TimeoutMS, MaxTimeoutMS)
	}
	if r.MaxBitOps < 0 {
		return badRequest("maxBitOps must be non-negative")
	}
	if r.Poly != nil {
		return r.validatePoly()
	}
	return r.validateMatrix()
}

func (r *SolveRequest) validatePoly() error {
	coeffs := r.Poly.Coeffs
	if len(coeffs) < 2 {
		return badRequest("polynomial needs at least two coefficients (degree ≥ 1)")
	}
	if len(coeffs) > MaxDegree+1 {
		return badRequest("degree %d exceeds limit %d", len(coeffs)-1, MaxDegree)
	}
	parsed := make([]*big.Int, len(coeffs))
	for i, s := range coeffs {
		if len(s) == 0 || len(s) > MaxCoeffDigits {
			return badRequest("coefficient %d has %d digits (want 1..%d)", i, len(s), MaxCoeffDigits)
		}
		v, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return badRequest("coefficient %d is not a decimal integer: %q", i, s)
		}
		parsed[i] = v
	}
	if parsed[len(parsed)-1].Sign() == 0 {
		return badRequest("leading coefficient is zero")
	}
	r.coeffs = parsed
	return nil
}

func (r *SolveRequest) validateMatrix() error {
	rows := r.Matrix.Rows
	n := len(rows)
	if n < 1 {
		return badRequest("matrix is empty")
	}
	if n > MaxMatrixDim {
		return badRequest("matrix dimension %d exceeds limit %d", n, MaxMatrixDim)
	}
	for i, row := range rows {
		if len(row) != n {
			return badRequest("matrix row %d has %d entries, want %d", i, len(row), n)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rows[i][j] != rows[j][i] {
				return &RequestError{
					Code: CodeNotSymmetric,
					Msg:  fmt.Sprintf("matrix[%d][%d]=%d but matrix[%d][%d]=%d", i, j, rows[i][j], j, i, rows[j][i]),
				}
			}
		}
	}
	r.rows = rows
	return nil
}

// degree returns the solve's polynomial degree: the polynomial's own,
// or the matrix dimension (charpoly degree).
func (r *SolveRequest) degree() int {
	if r.coeffs != nil {
		return len(r.coeffs) - 1
	}
	return len(r.rows)
}

// coeffBits is the coefficient size in bits for the cost model: the
// polynomial's largest, or, for a matrix, the bound on its
// characteristic polynomial's coefficients by which the charpoly
// chooses its primes. It is at least 1.
func (r *SolveRequest) coeffBits() int {
	b := 0
	if r.coeffs != nil {
		for _, c := range r.coeffs {
			b = max(b, c.BitLen())
		}
	} else if m, err := charpoly.FromRows(r.rows); err == nil { // validateMatrix admits only square, non-empty rows
		b = charpoly.CoeffBits(m)
	}
	return max(b, 1)
}

// solve runs the decoded request through the solver. A matrix goes to
// core as a matrix, so that its characteristic polynomial is the
// solve's first phase, under its deadline and on its trace.
func (r *SolveRequest) solve(opts core.Options) (*core.Result, error) {
	if r.coeffs != nil {
		return core.FindRoots(r.buildPoly(), opts)
	}
	m, err := charpoly.FromRows(r.rows)
	if err != nil { // validateMatrix admits only square, non-empty rows
		return nil, fmt.Errorf("server: %w", err)
	}
	return core.FindRootsOfMatrix(m, opts)
}

// buildPoly converts a decoded polynomial request into the solver's
// polynomial.
func (r *SolveRequest) buildPoly() *poly.Poly {
	c := make([]*mp.Int, len(r.coeffs))
	for i, v := range r.coeffs {
		c[i] = new(mp.Int).SetBig(v)
	}
	return poly.New(c...)
}

// cacheKey returns the canonical result-cache key: a hash over the
// input form and payload plus every option that changes the result
// bytes (µ, profile, method). Worker count, timeout, and budget are
// deliberately excluded — the roots are bit-identical for any worker
// count, and resource options only change whether a run finishes, and
// failed runs are never cached.
func (r *SolveRequest) cacheKey(mu uint, prof mp.Profile, method string) string {
	h := sha256.New()
	writeField := func(parts ...string) {
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
	}
	writeField("v1", prof.String(), method, strconv.FormatUint(uint64(mu), 10))
	if r.coeffs != nil {
		writeField("poly", strconv.Itoa(len(r.coeffs)))
		for _, c := range r.coeffs {
			writeField(c.String())
		}
	} else {
		writeField("matrix", strconv.Itoa(len(r.rows)))
		for _, row := range r.rows {
			for _, v := range row {
				writeField(strconv.FormatInt(v, 10))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AsRequestError extracts the typed request error, mapping unknown
// errors to CodeInternal.
func AsRequestError(err error) *RequestError {
	var re *RequestError
	if errors.As(err, &re) {
		return re
	}
	return &RequestError{Code: CodeInternal, Msg: err.Error()}
}

// methodT aliases the solver's refinement-method type for the server's
// internal plumbing.
type methodT = interval.Method

// parseMethod maps a validated request method name to the solver's
// type; the empty string is the paper's hybrid.
func parseMethod(s string) methodT {
	switch s {
	case "bisection":
		return interval.MethodBisection
	case "newton":
		return interval.MethodNewton
	default:
		return interval.MethodHybrid
	}
}
