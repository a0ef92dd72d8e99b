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
	"realroots/internal/workload"
)

// Loadtest drives the rootd solve server with a mixed multi-tenant
// workload and counts, per grid cell and per tenant, the requests sent
// and the requests that failed. It does not time them: perfbench's
// rootd-mixed workload does. With Config.ServerURL empty an in-process
// server is started on an ephemeral port (the hermetic default used by
// the golden tests); point ServerURL at a running rootd to drive a real
// deployment. Requests mix the polynomial and matrix (charpoly twin) forms of each
// instance and are spread round-robin over Config.LoadTenants tenants,
// shuffled deterministically, and issued by Config.LoadConcurrency
// client goroutines. When Config.LoadJSON is set, a bench-grid/v1
// report of each cell's bit ops and metrics is written there for the
// -compare gate.
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
		tenant int
		body   string
		id     string // X-Request-Id: deterministic, exemplar-traceable
		poly   bool   // polynomial form (vs the matrix charpoly twin)
	}
	seed := cfg.Seeds[0]
	var reqs []request
	for ci, c := range cells {
		for r := 0; r < perCell; r++ {
			tenant := (ci*perCell + r) % tenants
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
			body := fmt.Sprintf(`{"tenant":"tenant%d",%s,"precision":%d,"workers":%d}`,
				tenant, payload, c.mu, c.procs)
			reqs = append(reqs, request{
				cell: ci, tenant: tenant, body: body,
				id:   fmt.Sprintf("load-s%d-c%d-r%d", seed, ci, r),
				poly: isPoly,
			})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	})

	// Issue the request set with the configured client concurrency; a
	// request an interrupted sweep never sent keeps sent == false.
	type result struct {
		sent    bool
		resp    *server.SolveResponse
		errCode string
	}
	results := make([]result, len(reqs))
	client := &http.Client{Timeout: 5 * time.Minute}
	defer client.CloseIdleConnections()
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				resp, code := send(client, baseURL, reqs[i].body, reqs[i].id)
				results[i] = result{sent: true, resp: resp, errCode: code}
			}
		}()
	}
	interrupted := false
	for i := range reqs {
		if cfg.interrupted() != nil {
			interrupted = true
			break
		}
		work <- i
	}
	close(work)
	wg.Wait()

	// Fold the results into cells and tenants.
	type counts struct{ requests, errors int }
	type cellStats struct {
		counts
		resp     *server.SolveResponse
		respPoly bool
	}
	stats := make([]cellStats, len(cells))
	perTenant := make([]counts, tenants)
	var total counts
	uniqueSolves, sharedResults := 0, 0
	for i, r := range results {
		if !r.sent {
			continue
		}
		req := reqs[i]
		cs, ts := &stats[req.cell], &perTenant[req.tenant]
		cs.requests++
		ts.requests++
		total.requests++
		if r.resp == nil {
			cs.errors++
			ts.errors++
			total.errors++
			continue
		}
		if r.resp.Cached {
			sharedResults++
		} else {
			uniqueSolves++
		}
		// Prefer the polynomial-form response for the cell's bench-grid
		// numbers: its BitOps match a RunGrid cell of the same
		// (degree, µ, seed, profile), so -compare gates against solver
		// benchmarks; the matrix twin solves a different polynomial.
		if cs.resp == nil || (!cs.respPoly && req.poly) {
			cs.resp, cs.respPoly = r.resp, req.poly
		}
	}

	fmt.Fprintf(w, "loadtest: %d requests over %d cells, %d clients, %d tenants against %s\n",
		total.requests, len(cells), concurrency, tenants, target)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tµ\tP\treq\terr")
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
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", c.n, c.mu, c.procs, cs.requests, cs.errors)
		if cs.resp != nil {
			cell := GridCell{
				Degree:  c.n,
				Mu:      c.mu,
				Procs:   c.procs,
				Seed:    seed,
				Profile: profName,
				BitOps:  cs.resp.BitOps,
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
	// (round-robin assignment). Which tenant leads a cached solve is a
	// scheduling race, so solve/hit splits are deliberately left to the
	// server-side ledger.
	fmt.Fprintln(w, "per-tenant:")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "tenant\treq\terr")
	for k, ts := range perTenant {
		if ts.requests > 0 {
			fmt.Fprintf(tw, "tenant%d\t%d\t%d\n", k, ts.requests, ts.errors)
		}
	}
	tw.Flush()

	fmt.Fprintf(w, "total: %d requests (%d solved, %d cache-shared), %d errors\n",
		total.requests, uniqueSolves, sharedResults, total.errors)

	if cfg.LoadJSON != nil {
		enc := json.NewEncoder(cfg.LoadJSON)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	}
	if interrupted {
		return ErrInterrupted
	}
	if total.errors > 0 {
		var codes []string
		seen := map[string]bool{}
		for _, r := range results {
			if r.errCode != "" && !seen[r.errCode] {
				seen[r.errCode] = true
				codes = append(codes, r.errCode)
			}
		}
		return fmt.Errorf("loadtest: %d/%d requests failed (codes: %s)",
			total.errors, total.requests, strings.Join(codes, ", "))
	}
	return nil
}

// send posts one solve request to rootd at url and returns the decoded
// response, or the failure's code: the server's typed error code,
// "untyped" for an error body without one, or "transport".
func send(client *http.Client, url, body, id string) (*server.SolveResponse, string) {
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/solve", strings.NewReader(body))
	if err != nil {
		return nil, "transport"
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", id)
	hresp, err := client.Do(hreq)
	if err != nil {
		return nil, "transport"
	}
	data, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		return nil, "transport"
	}
	if hresp.StatusCode == http.StatusOK {
		var out server.SolveResponse
		if json.Unmarshal(data, &out) != nil {
			return nil, "transport"
		}
		return &out, ""
	}
	var eresp server.ErrorResponse
	if json.Unmarshal(data, &eresp) != nil || eresp.Error.Code == "" {
		return nil, "untyped"
	}
	return nil, eresp.Error.Code
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
