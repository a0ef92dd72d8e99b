package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/core"
	"realroots/internal/faultinject"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// stressInstance is one workload the stress tenants request, as a
// request body plus the solver-level reference input for the bit-exact
// check.
type stressInstance struct {
	body string
	p    *poly.Poly
	mu   uint
}

// polyCoeffsJSON renders p's coefficients as the request's ascending
// decimal string array.
func polyCoeffsJSON(p *poly.Poly) string {
	parts := make([]string, p.Degree()+1)
	for i := 0; i <= p.Degree(); i++ {
		parts[i] = fmt.Sprintf("%q", p.Coeff(i).String())
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// buildStressInstances mixes polynomial and matrix forms across
// degrees and precisions — the paper's charpoly workload plus classic
// all-real families.
func buildStressInstances() []stressInstance {
	var out []stressInstance
	for i, n := range []int{4, 5, 6, 7} {
		mu := uint(16 + 4*i)
		p := workload.CharPoly01(int64(100+i), n)
		out = append(out, stressInstance{
			body: fmt.Sprintf(`{"tenant":"%%s","poly":{"coeffs":%s},"precision":%d,"workers":2}`, polyCoeffsJSON(p), mu),
			p:    p, mu: mu,
		})
		rows, _ := json.Marshal(workload.SymmetricRows01(int64(100+i), n))
		out = append(out, stressInstance{
			body: fmt.Sprintf(`{"tenant":"%%s","matrix":{"rows":%s},"precision":%d,"workers":2}`, rows, mu),
			p:    p, mu: mu, // same matrix, so the charpoly reference matches
		})
	}
	for i, p := range []*poly.Poly{
		workload.Wilkinson(8),
		workload.Chebyshev(7),
		workload.WithMultiplicities(7, 4, 10, 3),
		workload.Tridiagonal(11, 9, 3),
	} {
		mu := uint(20 + 2*i)
		out = append(out, stressInstance{
			body: fmt.Sprintf(`{"tenant":"%%s","poly":{"coeffs":%s},"precision":%d,"workers":2}`, polyCoeffsJSON(p), mu),
			p:    p, mu: mu,
		})
	}
	return out
}

// referenceRoots solves every instance fault-free on the plain solver,
// giving the bit-exact expectation for successful server responses.
func referenceRoots(t *testing.T, instances []stressInstance) map[int][]RootJSON {
	t.Helper()
	refs := make(map[int][]RootJSON, len(instances))
	for i, inst := range instances {
		roots, err := core.FindRootsWithMultiplicity(inst.p, core.Options{Mu: inst.mu})
		if err != nil {
			t.Fatalf("reference solve %d: %v", i, err)
		}
		digits := decimalDigits(inst.mu)
		ref := make([]RootJSON, len(roots))
		for j, rm := range roots {
			ref[j] = RootJSON{
				Value:        rm.Root.Rat().RatString(),
				Decimal:      rm.Root.Decimal(digits),
				Multiplicity: rm.Mult,
			}
		}
		refs[i] = ref
	}
	return refs
}

// allowedStressCodes are the typed errors a faulted solve may surface.
var allowedStressCodes = map[string]bool{
	CodeInternal: true, // isolated injected panic
	CodeCanceled: true, // injected cancellation (or drain)
	CodeDeadline: true,
	CodeBudget:   true,
	CodeDraining: true,
}

// TestStressMultiTenant is the race-hardened end-to-end suite: 8
// tenants fire 64 concurrent mixed polynomial/matrix requests at a
// live server with seeded fault-injection plans. Every request must
// end in either bit-exact roots (matching a fault-free reference
// solve) or a typed error JSON from the allowed set; afterwards a
// drain under load must complete without deadlock and leave no
// goroutines behind.
func TestStressMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	const (
		tenants          = 8
		workersPerTenant = 8 // 64 concurrent requests in flight
		reqsPerWorker    = 4
		faultSeed        = 20240
	)
	instances := buildStressInstances()
	refs := referenceRoots(t, instances)

	s := New(Config{
		MaxConcurrent:   8,
		MaxQueue:        tenants * workersPerTenant * reqsPerWorker,
		WorkersPerSolve: 2,
		CacheEntries:    8, // small enough to exercise eviction under load
		Faults: func(seq uint64, ctx context.Context, cancel context.CancelFunc) func(int64) {
			return faultinject.New(faultSeed + int64(seq)).Hook(cancel)
		},
	})
	hs := httptest.NewServer(s.Handler())

	type outcome struct {
		instance int
		status   int
		body     []byte
	}
	results := make(chan outcome, tenants*workersPerTenant*reqsPerWorker)
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		tenant := fmt.Sprintf("tenant%d", tn)
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(tn, w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000*tn + w)))
				client := &http.Client{}
				defer client.CloseIdleConnections()
				for r := 0; r < reqsPerWorker; r++ {
					idx := rng.Intn(len(instances))
					body := fmt.Sprintf(instances[idx].body, tenant)
					resp, err := client.Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("tenant %s: %v", tenant, err)
						return
					}
					data := make([]byte, 0, 4096)
					buf := make([]byte, 4096)
					for {
						n, rerr := resp.Body.Read(buf)
						data = append(data, buf[:n]...)
						if rerr != nil {
							break
						}
					}
					resp.Body.Close()
					results <- outcome{instance: idx, status: resp.StatusCode, body: data}
				}
			}(tn, w)
		}
	}
	wg.Wait()
	close(results)

	var ok, failed int
	for res := range results {
		if res.status == http.StatusOK {
			ok++
			var out SolveResponse
			if err := json.Unmarshal(res.body, &out); err != nil {
				t.Fatalf("instance %d: bad 200 body: %v", res.instance, err)
			}
			ref := refs[res.instance]
			if len(out.Roots) != len(ref) {
				t.Fatalf("instance %d: %d roots, want %d", res.instance, len(out.Roots), len(ref))
			}
			for j := range ref {
				if out.Roots[j] != ref[j] {
					t.Fatalf("instance %d root %d = %+v, want bit-exact %+v",
						res.instance, j, out.Roots[j], ref[j])
				}
			}
		} else {
			failed++
			var eresp ErrorResponse
			if err := json.Unmarshal(res.body, &eresp); err != nil {
				t.Fatalf("instance %d: status %d with untyped body %s", res.instance, res.status, res.body)
			}
			if !allowedStressCodes[eresp.Error.Code] {
				t.Fatalf("instance %d: unexpected error code %q (%s)",
					res.instance, eresp.Error.Code, eresp.Error.Message)
			}
		}
	}
	t.Logf("stress: %d ok, %d typed failures", ok, failed)
	if ok == 0 {
		t.Fatal("no request succeeded — fault mix should leave plenty of clean runs")
	}

	// Drain while a final wave is in flight: must not deadlock, and
	// stragglers get typed cancellations.
	var waveWG sync.WaitGroup
	for i := 0; i < 16; i++ {
		waveWG.Add(1)
		go func(i int) {
			defer waveWG.Done()
			body := fmt.Sprintf(instances[i%len(instances)].body, "drainwave")
			resp, err := http.Post(hs.URL+"/v1/solve", "application/json", strings.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Drain(drainCtx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("drain deadlocked:\n%s", buf[:runtime.Stack(buf, true)])
	}
	waveWG.Wait()
	hs.Close()
	http.DefaultClient.CloseIdleConnections()

	// Leak check: all request, solver, and queue goroutines must be
	// gone once drain and the listener shutdown complete.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStressProfilesShareNothing reruns a small burst with both
// arithmetic profiles concurrently and checks responses never mix up
// profiles — the cache key must separate them.
func TestStressProfilesShareNothing(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	defer s.Drain(context.Background())
	p := workload.CharPoly01(7, 5)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		profile := []string{"paper", "fast"}[i%2]
		wg.Add(1)
		go func(profile string) {
			defer wg.Done()
			body := fmt.Sprintf(`{"poly":{"coeffs":%s},"precision":24,"profile":%q}`, polyCoeffsJSON(p), profile)
			req, err := DecodeSolveRequest([]byte(body))
			if err != nil {
				t.Error(err)
				return
			}
			out, err := s.Solve(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			want := profile
			if profile == "paper" {
				want = mp.Schoolbook.String()
			}
			if out.Profile != want {
				t.Errorf("asked for profile %s, response says %s", profile, out.Profile)
			}
		}(profile)
	}
	wg.Wait()
}
