package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"realroots/internal/mp"
)

// TestCacheDedupInFlight checks single-flight behaviour: N identical
// concurrent requests run the solve exactly once and share one result.
func TestCacheDedupInFlight(t *testing.T) {
	c := newResultCache(8, nil)
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	results := make([]*SolveResponse, n)
	cachedFlags := make([]bool, n)
	// The leader stalls in fn until every joiner has piled on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, outcome, err := c.Do(context.Background(), "k", func() (*SolveResponse, error) {
			close(started)
			calls.Add(1)
			<-gate
			return &SolveResponse{Degree: 7}, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], cachedFlags[0] = resp, outcome != "miss"
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, outcome, err := c.Do(context.Background(), "k", func() (*SolveResponse, error) {
				calls.Add(1)
				return &SolveResponse{Degree: -1}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], cachedFlags[i] = resp, outcome != "miss"
		}(i)
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("solve ran %d times, want 1", got)
	}
	if cachedFlags[0] {
		t.Error("leader reported cached=true")
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("joiner %d got a different result pointer", i)
		}
		if !cachedFlags[i] {
			t.Errorf("joiner %d reported cached=false", i)
		}
	}
}

// TestCacheJoinerCancel checks that a joiner whose context ends while
// the leader is still solving gets a typed cancellation, not a hang.
func TestCacheJoinerCancel(t *testing.T) {
	c := newResultCache(8, nil)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (*SolveResponse, error) {
			close(started)
			<-gate
			return &SolveResponse{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, "k", func() (*SolveResponse, error) {
		t.Error("joiner ran fn")
		return nil, nil
	})
	re := AsRequestError(err)
	if re.Code != CodeCanceled {
		t.Fatalf("joiner error code = %q, want %q", re.Code, CodeCanceled)
	}
	close(gate)
	<-done
}

// TestCacheLRUEviction fills a capacity-2 cache and checks
// least-recently-used eviction order and evict events.
func TestCacheLRUEviction(t *testing.T) {
	var evicts atomic.Int64
	c := newResultCache(2, func(e string) {
		if e == "evict" {
			evicts.Add(1)
		}
	})
	do := func(key string) bool {
		var ran bool
		_, outcome, err := c.Do(context.Background(), key, func() (*SolveResponse, error) {
			ran = true
			return &SolveResponse{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cached := outcome != "miss"
		if ran == cached {
			t.Fatalf("key %s: ran=%v outcome=%q", key, ran, outcome)
		}
		return cached
	}
	do("a")
	do("b")
	do("a") // refresh a: LRU order is now [a, b]
	do("c") // evicts b
	if evicts.Load() != 1 {
		t.Fatalf("evict events = %d, want 1", evicts.Load())
	}
	if !do("a") {
		t.Error("a was evicted, want it retained (recently used)")
	}
	if do("b") {
		t.Error("b was retained, want it evicted (least recently used)")
	}
	if c.Len() > 2 {
		t.Errorf("cache holds %d entries, capacity 2", c.Len())
	}
}

// TestCacheFailuresNotCached checks that an error result is not
// retained: the next identical request solves again.
func TestCacheFailuresNotCached(t *testing.T) {
	c := newResultCache(8, nil)
	var calls int
	for i := 0; i < 2; i++ {
		_, outcome, err := c.Do(context.Background(), "k", func() (*SolveResponse, error) {
			calls++
			return nil, &RequestError{Code: CodeBudget, Msg: "boom"}
		})
		if err == nil || outcome != "miss" {
			t.Fatalf("attempt %d: err=%v outcome=%q", i, err, outcome)
		}
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (failures must not be cached)", calls)
	}
}

// TestCacheKeyNoAliasing pins the cache-key contract: µ, profile,
// method, input form, and payload all separate keys, while worker
// count deliberately does not (results are worker-invariant).
func TestCacheKeyNoAliasing(t *testing.T) {
	decode := func(body string) *SolveRequest {
		req, err := DecodeSolveRequest([]byte(body))
		if err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		return req
	}
	base := decode(`{"poly":{"coeffs":["-2","0","1"]}}`)

	keys := map[string]string{
		"mu=32 schoolbook hybrid": base.cacheKey(32, mp.Schoolbook, "hybrid"),
		"mu=64 schoolbook hybrid": base.cacheKey(64, mp.Schoolbook, "hybrid"),
		"mu=32 fast hybrid":       base.cacheKey(32, mp.Fast, "hybrid"),
		"mu=32 schoolbook newton": base.cacheKey(32, mp.Schoolbook, "newton"),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %s aliases %s", name, prev)
		}
		seen[k] = name
	}

	// Distinct payloads never alias, and a matrix is never the "same"
	// request as any polynomial — including its own charpoly.
	other := decode(`{"poly":{"coeffs":["-2","0","2"]}}`)
	if other.cacheKey(32, mp.Schoolbook, "hybrid") == base.cacheKey(32, mp.Schoolbook, "hybrid") {
		t.Error("different polynomials alias")
	}
	matrix := decode(`{"matrix":{"rows":[[0,1],[1,0]]}}`)
	charpolyTwin := decode(`{"poly":{"coeffs":["-1","0","1"]}}`) // det(xI-M) = x²-1
	if matrix.cacheKey(32, mp.Schoolbook, "hybrid") == charpolyTwin.cacheKey(32, mp.Schoolbook, "hybrid") {
		t.Error("matrix aliases its characteristic polynomial")
	}

	// Canonicalization: numerically equal coefficients spelled
	// differently ("+1", "01") map to the same key.
	spelled := decode(`{"poly":{"coeffs":["-02","+0","01"]}}`)
	if spelled.cacheKey(32, mp.Schoolbook, "hybrid") != base.cacheKey(32, mp.Schoolbook, "hybrid") {
		t.Error("equal coefficients spelled differently do not share a key")
	}

	// Worker count is intentionally not part of the key.
	workers := decode(`{"poly":{"coeffs":["-2","0","1"]},"workers":4}`)
	if workers.cacheKey(32, mp.Schoolbook, "hybrid") != base.cacheKey(32, mp.Schoolbook, "hybrid") {
		t.Error("worker count leaked into the cache key")
	}

	// No separator ambiguity: ["12","3"] vs ["1","23"].
	a := decode(`{"poly":{"coeffs":["12","3"]}}`)
	b := decode(`{"poly":{"coeffs":["1","23"]}}`)
	if a.cacheKey(32, mp.Schoolbook, "hybrid") == b.cacheKey(32, mp.Schoolbook, "hybrid") {
		t.Error("coefficient concatenation is ambiguous")
	}
}

// TestCacheEndToEnd drives dedup through the full server: two
// identical requests, the second served from cache with Cached=true
// and the same root values.
func TestCacheEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Drain(context.Background())
	body := `{"poly":{"coeffs":["-2","0","1"]},"precision":40}`
	var prev *SolveResponse
	for i := 0; i < 3; i++ {
		req, err := DecodeSolveRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := i > 0; out.Cached != want {
			t.Fatalf("request %d: Cached = %v, want %v", i, out.Cached, want)
		}
		if prev != nil {
			for j := range out.Roots {
				if out.Roots[j] != prev.Roots[j] {
					t.Fatalf("request %d root %d differs: %v vs %v", i, j, out.Roots[j], prev.Roots[j])
				}
			}
		}
		prev = out
	}
	if got := s.cacheEvts.Value("miss"); got != 1 {
		t.Errorf("miss events = %d, want 1", got)
	}
	if got := s.cacheEvts.Value("hit"); got != 2 {
		t.Errorf("hit events = %d, want 2", got)
	}
}

// TestCacheTinyCapacityEndToEnd checks LRU eviction through the
// server with capacity 1: alternating requests keep re-solving.
func TestCacheTinyCapacityEndToEnd(t *testing.T) {
	s := New(Config{CacheEntries: 1})
	defer s.Drain(context.Background())
	solve := func(body string) *SolveResponse {
		req, err := DecodeSolveRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := `{"poly":{"coeffs":["-2","0","1"]}}`
	b := `{"poly":{"coeffs":["-3","0","1"]}}`
	for i := 0; i < 2; i++ {
		if out := solve(a); out.Cached {
			t.Fatalf("round %d: a cached, want evicted by b", i)
		}
		if out := solve(b); out.Cached {
			t.Fatalf("round %d: b cached, want evicted by a", i)
		}
	}
	if got := s.cacheEvts.Value("evict"); got != 3 {
		t.Errorf("evict events = %d, want 3", got)
	}
	if got := s.cache.Len(); got != 1 {
		t.Errorf("cache size = %d, want 1", got)
	}
}

// TestCacheKeyStability pins the key shape: deterministic and a
// 64-hex-digit SHA-256.
func TestCacheKeyStability(t *testing.T) {
	req, err := DecodeSolveRequest([]byte(`{"poly":{"coeffs":["-2","0","1"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	k1 := req.cacheKey(32, mp.Schoolbook, "hybrid")
	k2 := req.cacheKey(32, mp.Schoolbook, "hybrid")
	if k1 != k2 || len(k1) != 64 {
		t.Fatalf("keys %q / %q (len %d)", k1, k2, len(k1))
	}
}
