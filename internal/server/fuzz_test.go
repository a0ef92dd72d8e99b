package server

import (
	"errors"
	"strings"
	"testing"
)

// FuzzSolveRequestDecode pins the decoder's trust-boundary contract:
// arbitrary bytes never panic, and every rejection is a *RequestError
// carrying a 400-class code (bad_request or not_symmetric) — never an
// untyped error that the handler would map to a 500.
func FuzzSolveRequestDecode(f *testing.F) {
	// Valid forms.
	f.Add([]byte(`{"poly":{"coeffs":["-2","0","1"]},"precision":64}`))
	f.Add([]byte(`{"tenant":"alice","matrix":{"rows":[[2,1],[1,2]]},"workers":4,"profile":"fast","method":"newton"}`))
	f.Add([]byte(`{"poly":{"coeffs":["0","-1","0","1"]},"timeoutMs":5000,"maxBitOps":123456}`))
	// Malformed JSON.
	f.Add([]byte(`{"poly":`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]}} trailing`))
	// Unknown fields and wrong shapes.
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]},"frobnicate":true}`))
	f.Add([]byte(`{"poly":{"coeffs":[1,2]}}`))
	f.Add([]byte(`{"matrix":{"rows":[["a"]]}}`))
	// Oversized and degenerate payloads.
	f.Add([]byte(`{"poly":{"coeffs":["` + strings.Repeat("9", MaxCoeffDigits+1) + `","1"]}}`))
	f.Add([]byte(`{"poly":{"coeffs":["1","0"]}}`))     // zero leading coefficient
	f.Add([]byte(`{"poly":{"coeffs":["1","-","1"]}}`)) // non-numeric
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]},"workers":-3}`))
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]},"precision":99999}`))
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]},"profile":"quantum"}`))
	f.Add([]byte(`{"poly":{"coeffs":["1","1"]},"method":"divination"}`))
	f.Add([]byte(`{"tenant":"s p a c e","poly":{"coeffs":["1","1"]}}`))
	// Non-symmetric and ragged matrices.
	f.Add([]byte(`{"matrix":{"rows":[[1,2],[3,4]]}}`))
	f.Add([]byte(`{"matrix":{"rows":[[1,2],[3]]}}`))
	f.Add([]byte(`{"matrix":{"rows":[]}}`))
	// Unicode and control characters.
	f.Add([]byte("{\"tenant\":\"\u0000\",\"poly\":{\"coeffs\":[\"1\",\"1\"]}}"))
	f.Add([]byte("{\"poly\":{\"coeffs\":[\"1\",\"1\"]},\"tenant\":\"\xff\xfe\"}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSolveRequest(data) // must never panic
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			if re.Code != CodeBadRequest && re.Code != CodeNotSymmetric {
				t.Fatalf("decode rejected with non-400-class code %q", re.Code)
			}
			if status := statusFor(re.Code); status < 400 || status >= 500 {
				t.Fatalf("code %q maps to status %d, want 4xx", re.Code, status)
			}
			return
		}
		// Accepted requests must satisfy the invariants the solver
		// relies on: exactly one form, in-limit sizes, parsed payload.
		if (req.coeffs == nil) == (req.rows == nil) {
			t.Fatal("accepted request has neither or both payloads decoded")
		}
		if d := req.degree(); d < 1 || d > MaxDegree {
			t.Fatalf("accepted degree %d out of range", d)
		}
		if req.coeffBits() < 1 {
			t.Fatal("accepted request with non-positive coefficient size")
		}
		// The cache key must be computable for any accepted request.
		if k := req.cacheKey(32, 0, "hybrid"); len(k) != 64 {
			t.Fatalf("cache key %q", k)
		}
	})
}
