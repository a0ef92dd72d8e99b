package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"realroots/internal/server"
	"realroots/internal/telemetry"
	"realroots/internal/workload"
)

// Loadtest drives the rootd solve server with a mixed multi-tenant
// workload and reports client-observed p50/p99 latency and throughput
// per grid cell. With Config.ServerURL empty an in-process server is
// started on an ephemeral port (the hermetic default used by the
// golden tests); point ServerURL at a running rootd to measure a real
// deployment. Requests mix the polynomial and matrix (charpoly twin)
// forms of each instance and are spread round-robin over
// Config.LoadTenants tenants, shuffled deterministically, and issued
// by Config.LoadConcurrency client goroutines. When Config.LoadJSON is
// set, a bench-grid/v1 report with per-cell latency percentiles is
// written there for the -compare regression gate.
func Loadtest(w io.Writer, cfg Config) error {
	perCell := cfg.LoadRequests
	if perCell <= 0 {
		perCell = 3
	}
	concurrency := cfg.LoadConcurrency
	if concurrency <= 0 {
		concurrency = 8
	}
	tenants := cfg.LoadTenants
	if tenants <= 0 {
		tenants = 4
	}

	maxProcs := 1
	for _, p := range cfg.Procs {
		if p > maxProcs {
			maxProcs = p
		}
	}
	baseURL := cfg.ServerURL
	target := baseURL
	if baseURL == "" {
		srv := server.New(server.Config{
			MaxConcurrent:   maxProcs * 2,
			MaxQueue:        len(cfg.Degrees) * len(cfg.Mus) * len(cfg.Procs) * perCell,
			WorkersPerSolve: maxProcs,
			CacheEntries:    1024,
			DefaultProfile:  cfg.Profile,
			Telemetry:       cfg.Telemetry,
		})
		running, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("loadtest: starting in-process server: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			running.Close(ctx)
		}()
		baseURL = running.URL()
		target = "in-process server" // never print the ephemeral port: goldens
	}

	type cellShape struct {
		n     int
		mu    uint
		procs int
	}
	var cells []cellShape
	for _, n := range cfg.Degrees {
		for _, mu := range cfg.Mus {
			for _, p := range cfg.Procs {
				cells = append(cells, cellShape{n, mu, p})
			}
		}
	}

	type request struct {
		cell   int
		body   string
		tenant string
		id     string // X-Request-Id: deterministic, exemplar-traceable
		poly   bool   // polynomial form (vs the matrix charpoly twin)
	}
	seed := cfg.Seeds[0]
	var reqs []request
	for ci, c := range cells {
		for r := 0; r < perCell; r++ {
			tenant := fmt.Sprintf("tenant%d", (ci*perCell+r)%tenants)
			var payload string
			isPoly := true
			if r%2 == 1 && c.n <= server.MaxMatrixDim {
				rows, err := json.Marshal(workload.SymmetricRows01(seed, c.n))
				if err != nil {
					return err
				}
				payload = fmt.Sprintf(`"matrix":{"rows":%s}`, rows)
				isPoly = false
			} else {
				p := Instance(seed, c.n)
				coeffs := make([]string, p.Degree()+1)
				for i := range coeffs {
					coeffs[i] = fmt.Sprintf("%q", p.Coeff(i).String())
				}
				payload = fmt.Sprintf(`"poly":{"coeffs":[%s]}`, strings.Join(coeffs, ","))
			}
			body := fmt.Sprintf(`{"tenant":%q,%s,"precision":%d,"workers":%d}`,
				tenant, payload, c.mu, c.procs)
			reqs = append(reqs, request{
				cell: ci, body: body, tenant: tenant,
				id:   fmt.Sprintf("load-s%d-c%d-r%d", seed, ci, r),
				poly: isPoly,
			})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})

	type sample struct {
		cell    int
		tenant  string
		latency time.Duration
		resp    *server.SolveResponse
		errCode string
		poly    bool
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	defer client.CloseIdleConnections()
	// issue replays the full request set against url with the configured
	// client concurrency.
	issue := func(url string) ([]sample, time.Duration, bool) {
		samples := make([]sample, len(reqs))
		work := make(chan int)
		var wg sync.WaitGroup
		sweepStart := time.Now()
		for g := 0; g < concurrency; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					hreq, err := http.NewRequest(http.MethodPost, url+"/v1/solve",
						strings.NewReader(reqs[i].body))
					if err != nil {
						samples[i] = sample{cell: reqs[i].cell, tenant: reqs[i].tenant, errCode: "transport", poly: reqs[i].poly}
						continue
					}
					hreq.Header.Set("Content-Type", "application/json")
					hreq.Header.Set("X-Request-Id", reqs[i].id)
					start := time.Now()
					resp, err := client.Do(hreq)
					latency := time.Since(start)
					s := sample{cell: reqs[i].cell, tenant: reqs[i].tenant, latency: latency, poly: reqs[i].poly}
					if err != nil {
						s.errCode = "transport"
					} else {
						data, rerr := io.ReadAll(resp.Body)
						resp.Body.Close()
						switch {
						case rerr != nil:
							s.errCode = "transport"
						case resp.StatusCode == http.StatusOK:
							var out server.SolveResponse
							if jerr := json.Unmarshal(data, &out); jerr != nil {
								s.errCode = "transport"
							} else {
								s.resp = &out
							}
						default:
							var eresp server.ErrorResponse
							if jerr := json.Unmarshal(data, &eresp); jerr != nil || eresp.Error.Code == "" {
								s.errCode = "untyped"
							} else {
								s.errCode = eresp.Error.Code
							}
						}
					}
					samples[i] = s
				}
			}()
		}
		interrupted := false
		for i := range reqs {
			if err := cfg.interrupted(); err != nil {
				interrupted = true
				break
			}
			work <- i
		}
		close(work)
		wg.Wait()
		return samples, time.Since(sweepStart), interrupted
	}
	samples, sweepWall, interruptedEarly := issue(baseURL)

	// Fold samples into cells. Per-cell latency distributions use the
	// same fixed-bucket histogram the server exposes on /metrics, so
	// the loadtest's p50/p99 are histogram-derived quantiles — directly
	// comparable with a histogram_quantile over rootd_request_seconds.
	type cellStats struct {
		hist     *telemetry.Histogram
		seconds  float64
		requests int
		errors   int
		resp     *server.SolveResponse
		respPoly bool
	}
	type tenantStats struct {
		hist     *telemetry.Histogram
		requests int
		errors   int
	}
	stats := make([]cellStats, len(cells))
	perTenant := make(map[string]*tenantStats, tenants)
	totalReqs, totalErrs, uniqueSolves, sharedResults := 0, 0, 0, 0
	for _, s := range samples {
		if s.latency == 0 && s.resp == nil && s.errCode == "" {
			continue // request never issued (interrupted)
		}
		totalReqs++
		ts := perTenant[s.tenant]
		if ts == nil {
			ts = &tenantStats{hist: telemetry.NewHistogram(telemetry.SecondsBuckets)}
			perTenant[s.tenant] = ts
		}
		ts.hist.Observe(s.latency.Seconds(), "")
		ts.requests++
		cs := &stats[s.cell]
		if cs.hist == nil {
			cs.hist = telemetry.NewHistogram(telemetry.SecondsBuckets)
		}
		cs.hist.Observe(s.latency.Seconds(), "")
		cs.seconds += s.latency.Seconds()
		cs.requests++
		if s.resp == nil {
			cs.errors++
			ts.errors++
			totalErrs++
			continue
		}
		if s.resp.Cached {
			sharedResults++
		} else {
			uniqueSolves++
		}
		// Prefer the polynomial-form response for the cell's bench-grid
		// numbers: its BitOps match a RunGrid cell of the same
		// (degree, µ, seed, profile), so -compare gates against solver
		// benchmarks; the matrix twin solves a different polynomial.
		if cs.resp == nil || (!cs.respPoly && s.poly) {
			cs.resp, cs.respPoly = s.resp, s.poly
		}
	}

	fmt.Fprintf(w, "loadtest: %d requests over %d cells, %d clients, %d tenants against %s\n",
		totalReqs, len(cells), concurrency, tenants, target)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tµ\tP\treq\terr\tp50(ms)\tp99(ms)\treq/s")
	var rep GridReport
	rep.Schema = GridSchema
	profName := ""
	if cfg.Profile.String() != "schoolbook" {
		profName = cfg.Profile.String()
	}
	for ci, c := range cells {
		cs := &stats[ci]
		if cs.requests == 0 {
			continue
		}
		p50 := cs.hist.Quantile(0.50)
		p99 := cs.hist.Quantile(0.99)
		rps := float64(cs.requests) / cs.seconds
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.1f\n",
			c.n, c.mu, c.procs, cs.requests, cs.errors,
			p50*1e3, p99*1e3, rps)
		if cs.resp != nil {
			cell := GridCell{
				Degree:        c.n,
				Mu:            c.mu,
				Procs:         c.procs,
				Seed:          seed,
				Profile:       profName,
				WallSeconds:   p50,
				BitOps:        cs.resp.BitOps,
				P50Seconds:    p50,
				P99Seconds:    p99,
				ThroughputRPS: rps,
			}
			if cs.resp.Metrics != nil {
				cell.Metrics = *cs.resp.Metrics
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	tw.Flush()

	// Per-tenant breakdown: the client-side view of the server's
	// /debug/tenants ledger. Request and error counts are deterministic
	// (round-robin assignment); latency columns are measurements. Which
	// tenant leads a cached solve is a scheduling race, so solve/hit
	// splits are deliberately left to the server-side ledger.
	fmt.Fprintln(w, "per-tenant:")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\treq\terr\tp50(ms)\tp99(ms)")
	for k := 0; k < tenants; k++ {
		name := fmt.Sprintf("tenant%d", k)
		ts := perTenant[name]
		if ts == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.3f\n", name, ts.requests, ts.errors,
			ts.hist.Quantile(0.50)*1e3, ts.hist.Quantile(0.99)*1e3)
	}
	tw.Flush()

	fmt.Fprintf(w, "total: %d requests (%d solved, %d cache-shared), %d errors, %.1f req/s overall\n",
		totalReqs, uniqueSolves, sharedResults, totalErrs, float64(totalReqs)/sweepWall.Seconds())

	if cfg.LoadJSON != nil {
		enc := json.NewEncoder(cfg.LoadJSON)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	}
	if interruptedEarly {
		return ErrInterrupted
	}
	if totalErrs > 0 {
		var codes []string
		seen := map[string]bool{}
		for _, s := range samples {
			if s.errCode != "" && !seen[s.errCode] {
				seen[s.errCode] = true
				codes = append(codes, s.errCode)
			}
		}
		return fmt.Errorf("loadtest: %d/%d requests failed (codes: %s)",
			totalErrs, totalReqs, strings.Join(codes, ", "))
	}
	return nil
}

// ScrubExposition reduces a /metrics exposition to its stable
// structure for golden comparison under concurrent load: HELP/TYPE
// lines are kept verbatim, every sample value is replaced with '#',
// and sample lines of families whose series set depends on scheduling
// are dropped entirely — the phase- and operand-keyed solver families
// (the registry omits zero-valued phase samples) and the rootd latency
// histograms (series appear per tenant/method as requests complete,
// and exemplar request IDs are whichever request last landed in a
// bucket).
func ScrubExposition(expo []byte) string {
	unstable := []string{
		"realroots_phase_ops_total{",
		"realroots_phase_bits_total{",
		"realroots_operand_bits_ops_total{",
		"rootd_request_seconds_bucket{",
		"rootd_request_seconds_sum{",
		"rootd_request_seconds_count{",
		"rootd_queue_wait_seconds_bucket{",
		"rootd_queue_wait_seconds_sum{",
		"rootd_queue_wait_seconds_count{",
		"rootd_solve_seconds_bucket{",
		"rootd_solve_seconds_sum{",
		"rootd_solve_seconds_count{",
		// Per-phase wall histograms: series appear as each pipeline phase
		// first completes, so the set depends on scheduling mid-load.
		"rootd_phase_seconds_bucket{",
		"rootd_phase_seconds_sum{",
		"rootd_phase_seconds_count{",
		// Per-tenant ledger families: a tenant's series appears with its
		// first completed request.
		"rootd_tenant_",
	}
	var out bytes.Buffer
	for _, line := range strings.Split(string(expo), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fmt.Fprintln(&out, line)
			continue
		}
		skip := false
		for _, p := range unstable {
			if strings.HasPrefix(line, p) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop a trailing exemplar before value scrubbing
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i] + " #"
		}
		fmt.Fprintln(&out, line)
	}
	return out.String()
}
