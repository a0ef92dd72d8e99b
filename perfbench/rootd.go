package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"realroots/internal/core"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/server"
	"realroots/internal/telemetry"
	"realroots/internal/workload"
)

// rootdSpec is the rootd-mixed request mix. Every measured pass sends
// one draw of the mix to a fresh in-process server, so each pass starts
// from an empty result cache and sees the same hits and misses.
type rootdSpec struct {
	degrees     []int  // paper-family degrees, each sent at every µ
	mus         []uint // precisions of the paper-family inputs
	multDegrees []int  // degrees of the repeated-root inputs
	repeats     int    // requests per pass that repeat an earlier request
	tenants     int
	draws       int     // distinct draws of the mix; pass j sends draw j mod draws
	clients     int     // closed-loop keep-alive HTTP clients
	passSeconds float64 // one pass's nominal length on the reference host
	tracePasses int     // passes per stream the traced run replays
}

func mixedSpec(tiny bool) rootdSpec {
	s := rootdSpec{degrees: []int{8, 10, 12, 14, 16, 18, 20, 22, 24}, mus: []uint{16, 32, 64},
		multDegrees: []int{8, 11, 14, 17, 20, 23}, repeats: 11, tenants: 4, draws: 4, clients: 2, passSeconds: 0.34, tracePasses: 3}
	if tiny {
		s.degrees, s.mus, s.multDegrees, s.repeats, s.draws, s.passSeconds, s.tracePasses = []int{6, 8}, []uint{16}, []int{5}, 2, 1, 0.05, 1
	}
	return s
}

// rootdConfig is cmd/rootd's default configuration (flag defaults, run
// with -quiet: no per-request log), optionally without always-on
// tracing.
func rootdConfig(disableTracing bool) server.Config {
	return server.Config{
		MaxQueue:         256,
		WorkersPerSolve:  2,
		SolveTimeout:     60 * time.Second,
		DefaultPrecision: 32,
		DefaultProfile:   mp.Schoolbook,
		Burst:            8,
		CacheEntries:     256,
		DisableTracing:   disableTracing,
		Telemetry:        telemetry.New(telemetry.Config{}),
	}
}

// rootdSetupReps is how many times a rootd-mixed run sets up. Its
// setup takes a third of a second, so host noise moves one setup more
// than the library workloads' seconds-long ones and the median needs
// more samples.
const rootdSetupReps = 5

// rootdReq is one request of a pass.
type rootdReq struct {
	in   *input
	body []byte
}

// requests generates one pass from the seed: the paper family over
// degrees × µ with one third in matrix form, the repeated-root inputs,
// then repeats of earlier requests inserted at random later positions,
// tenants assigned round-robin. set picks the draw (-1 for the warm-up
// pass, so warm-up requests never recur); input ids start at firstID.
func (s rootdSpec) requests(seed, set int64, firstID int) ([]rootdReq, []*input, error) {
	var ins []*input
	for di, n := range s.degrees {
		for mi, mu := range s.mus {
			in := &input{id: firstID + len(ins), degree: n, mu: mu, form: "poly", seed: derive(seed, streamMatrix, set, int64(n), int64(mu))}
			if (di+mi)%3 == 0 {
				in.form = "matrix"
			}
			ins = append(ins, in)
		}
	}
	parallel(len(ins), runtime.NumCPU(), func(i int) {
		in := ins[i]
		if in.form == "matrix" {
			in.rows = workload.SymmetricRows01(in.seed, in.degree)
			return
		}
		in.p = workload.CharPoly01(in.seed, in.degree)
		in.coeffs = bigCoeffs(in.p)
	})
	for k, deg := range s.multDegrees {
		in := &input{id: firstID + len(ins), degree: deg, mu: s.mus[k%len(s.mus)], form: "mult"}
		// Redraw until the degree is the cell's, so that the mix of
		// degrees, which sets the latency quantiles, is the same for
		// every seed.
		for try := int64(0); in.p == nil || in.p.Degree() != deg; try++ {
			in.seed = derive(seed, streamMultiplicity, set, int64(k), try)
			in.p = workload.WithMultiplicities(in.seed, deg/2, 12, 3)
		}
		in.coeffs = bigCoeffs(in.p)
		ins = append(ins, in)
	}

	order := append([]*input(nil), ins...)
	r := rand.New(rand.NewSource(derive(seed, streamOrder, set)))
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// A repeat goes at least repeatGap positions after the request it
	// repeats, so that it finds a finished answer in the cache rather
	// than joining the solve in flight: a join waits as long as a miss,
	// and a seed-dependent share of joins would move the latency
	// quantiles.
	const repeatGap = 8
	rr := rand.New(rand.NewSource(derive(seed, streamRepeat, set)))
	for k := 0; k < s.repeats; k++ {
		g := min(repeatGap, len(order))
		pos := g + rr.Intn(len(order)-g+1)
		orig := order[rr.Intn(pos-g+1)]
		order = append(order[:pos], append([]*input{orig}, order[pos:]...)...)
	}
	reqs := make([]rootdReq, len(order))
	for i, in := range order {
		req := server.SolveRequest{Tenant: fmt.Sprintf("tenant-%d", i%s.tenants), Precision: in.mu, Workers: 1}
		if in.rows != nil {
			req.Matrix = &server.MatrixInput{Rows: in.rows}
		} else {
			req.Poly = &server.PolyInput{Coeffs: make([]string, len(in.coeffs))}
			for j, c := range in.coeffs {
				req.Poly.Coeffs[j] = c.String()
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		reqs[i] = rootdReq{in: in, body: body}
	}
	return reqs, ins, nil
}

// liveServer is an in-process rootd on a loopback listener with a
// keep-alive client transport.
type liveServer struct {
	run    *server.Running
	tr     *http.Transport
	client *http.Client
}

func startServer(disableTracing bool, clients int) (*liveServer, error) {
	srv := server.New(rootdConfig(disableTracing))
	run, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting rootd: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &liveServer{run: run, tr: tr, client: &http.Client{Transport: tr}}, nil
}

func (ls *liveServer) close() error {
	ls.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ls.run.Close(ctx)
}

// postSolve sends one request over HTTP and decodes the answer; its
// latency runs from the call to the decoded answer.
func (ls *liveServer) postSolve(r rootdReq, pass int) call {
	c := call{in: r.in, pass: pass}
	t0 := time.Now()
	resp, err := ls.client.Post(ls.run.URL()+"/v1/solve", "application/json", bytes.NewReader(r.body))
	if err != nil {
		c.ms, c.err = ms(time.Since(t0)), err
		return c
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.status, c.err = resp.StatusCode, err
	var body struct {
		Roots          []server.RootJSON `json:"roots"`
		BitOps         int64             `json:"bitOps"`
		Cached         bool              `json:"cached"`
		ElapsedSeconds float64           `json:"elapsedSeconds"`
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		c.err = json.Unmarshal(data, &body)
	} else if err == nil {
		c.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	c.ms = ms(time.Since(t0))
	if c.err == nil {
		c.roots, c.bitOps, c.cached, c.elapsed = rootdAnswer(body.Roots), body.BitOps, body.Cached, body.ElapsedSeconds
	}
	return c
}

// httpPass sends one pass of requests, numbered pass, to a fresh server
// from closed-loop clients; measure, if non-nil, wraps only the request
// stream, and beforeClose runs while the server is still live.
func (s rootdSpec) httpPass(reqs []rootdReq, pass int, disableTracing bool, m *meter, beforeClose func()) ([]call, error) {
	ls, err := startServer(disableTracing, s.clients)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.start()
	}
	out := make([]call, len(reqs))
	parallel(len(reqs), s.clients, func(i int) { out[i] = ls.postSolve(reqs[i], pass) })
	if m != nil {
		answered := 0
		for _, c := range out {
			if c.err == nil {
				answered++
			}
		}
		m.stop(len(out), answered)
	}
	if beforeClose != nil {
		beforeClose()
	}
	if err := ls.close(); err != nil {
		return nil, fmt.Errorf("stopping rootd: %w", err)
	}
	return out, nil
}

// rootdAnswer converts a rootd answer to the checker's form.
func rootdAnswer(rs []server.RootJSON) []answerRoot {
	out := make([]answerRoot, len(rs))
	for i, r := range rs {
		v, ok := new(big.Rat).SetString(r.Value)
		if !ok {
			v = new(big.Rat).SetInt64(1 << 62) // unparsable: fails the check
		}
		out[i] = answerRoot{value: v, mult: r.Multiplicity}
	}
	return out
}

func runRootd(cfg config) (*report, error) {
	s := mixedSpec(cfg.tiny)
	passes := passCount(cfg.seconds, s.passSeconds)

	// Setup: generate the requests, start a server and run one warm-up
	// pass of other inputs, rootdSetupReps times.
	var setups []float64
	var draws [][]rootdReq
	var ins []*input
	for rep := 0; rep < rootdSetupReps; rep++ {
		t0 := time.Now()
		draws, ins = nil, nil
		for d := 0; d < s.draws; d++ {
			reqs, dins, err := s.requests(cfg.seed, int64(d), len(ins))
			if err != nil {
				return nil, err
			}
			draws, ins = append(draws, reqs), append(ins, dins...)
		}
		warm, _, err := s.requests(cfg.seed, -1, 0)
		if err != nil {
			return nil, err
		}
		ls, err := startServer(false, s.clients)
		if err != nil {
			return nil, err
		}
		out := make([]call, len(warm))
		parallel(len(warm), s.clients, func(i int) { out[i] = ls.postSolve(warm[i], -1) })
		setups = append(setups, time.Since(t0).Seconds())
		if err := ls.close(); err != nil {
			return nil, err
		}
		for _, c := range out {
			if c.err != nil {
				return nil, fmt.Errorf("warm-up request: %w", c.err)
			}
		}
	}

	// Measured phase: whole passes, each against a fresh server.
	var m meter
	var byPass [][]call
	seen := make([][]answerRoot, len(ins))
	var heapMB float64
	limit := time.Duration(capFactor*cfg.seconds*float64(time.Second)) + capSlack
	for j := 0; j < passes; j++ {
		last := j == passes-1 || m.wall > limit
		out, err := s.httpPass(draws[j%len(draws)], j, false, &m, func() {
			if last {
				heapMB = retainedHeapMB() // the last pass's server, cache included, is still live
			}
		})
		if err != nil {
			return nil, err
		}
		shareAnswers(seen, out)
		byPass = append(byPass, out)
		if last {
			break
		}
	}

	// Reference polynomials of matrix-form inputs come from math/big,
	// after the measured phase.
	for _, in := range ins {
		if in.rows != nil {
			in.coeffs = refCharPoly(in.rows)
			c := make([]*mp.Int, len(in.coeffs))
			for i, v := range in.coeffs {
				c[i] = new(mp.Int).SetBig(v)
			}
			in.p = poly.New(c...)
		}
	}
	var calls []call
	for _, out := range byPass {
		calls = append(calls, out...)
	}
	rep, first := assemble(ins, calls, &m)
	rep.notes = append([]string{fmt.Sprintf("passes=%d requests=%d (per pass %d: %d distinct, %d repeats; %d draws, %d distinct inputs) clients=%d closed loop, keep-alive, tenants=%d, workers=1, fresh cmd/rootd-default server per pass",
		len(byPass), len(calls), len(draws[0]), len(draws[0])-s.repeats, s.repeats, len(draws), len(ins), s.clients, s.tenants)}, rep.notes...)
	var missBits []float64
	answered, rejected, cached := 0, 0, 0
	for _, c := range calls {
		switch {
		case c.status == http.StatusTooManyRequests || c.status == http.StatusServiceUnavailable:
			rejected++
		case c.err == nil && c.cached:
			answered++
			cached++
		case c.err == nil:
			answered++
			missBits = append(missBits, float64(c.bitOps))
		}
	}
	cacheHit := ratio(float64(cached), float64(answered))

	coreOpts := func(mu uint) core.Options {
		return core.Options{Mu: mu, Workers: 1, Method: interval.MethodHybrid, Profile: mp.Schoolbook}
	}
	answeredIns := answeredInputs(ins, first)
	repeated := repeatedRootFrac(answeredIns)
	if cfg.trace {
		// The traced run works on draw 0 and the passes that sent it.
		var draw0 [][]call
		for j := 0; j < len(byPass); j += len(draws) {
			draw0 = append(draw0, byPass[j])
		}
		lm, err := s.traceLayers(cfg, draws[0], draw0, answeredInputs(ins[:len(draws[0])-s.repeats], first), first, coreOpts)
		if err != nil {
			return nil, err
		}
		for k, v := range lm.metrics {
			rep.metrics[k] = v
		}
		rep.notes = append(rep.notes, lm.notes...)
		rep.notes = append(rep.notes, propertyNote(repeated, lm.smallOperandFrac, cacheHit))
		rep.metrics["poly.repeated_root_frac"] = repeated
		rep.metrics["server.cache_hit_frac"] = cacheHit
		rep.metrics["server.rejected_frac"] = ratio(float64(rejected), float64(len(calls)))
		return rep, nil
	}

	reports := make([]metrics.Report, len(answeredIns))
	parallel(len(answeredIns), runtime.NumCPU(), func(i int) {
		var c metrics.Counters
		o := coreOpts(answeredIns[i].mu)
		o.Counters = &c
		if _, err := solveCore(answeredIns[i], o, false); err == nil {
			reports[i] = c.Snapshot()
		}
	})
	var total metrics.Report
	for _, r := range reports {
		total = total.Add(r)
	}
	rep.notes = append(rep.notes, propertyNote(repeated, smallOperandFrac(total), cacheHit))
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["bitops_per_solve"] = ratio(sum(missBits), float64(len(missBits)))
	rep.metrics["retained_heap_mb"] = heapMB
	return rep, nil
}

// traceLayers measures the server-side per-layer metrics on the same
// request stream — in-process Solve latency, and HTTP latency with
// always-on tracing disabled — then replays each distinct input's
// layers as rootd runs them.
func (s rootdSpec) traceLayers(cfg config, pass []rootdReq, httpCalls [][]call, ins []*input, first [][]answerRoot, coreOpts func(uint) core.Options) (*layerResult, error) {
	k := min(s.tracePasses, len(httpCalls))

	// In-process stream: (*server.Server).Solve on pre-decoded requests.
	var inproc [][]call
	for j := 0; j < k; j++ {
		srv := server.New(rootdConfig(false))
		decoded := make([]*server.SolveRequest, len(pass))
		for i, r := range pass {
			req, err := server.DecodeSolveRequest(r.body)
			if err != nil {
				return nil, err
			}
			decoded[i] = req
		}
		out := make([]call, len(pass))
		parallel(len(pass), s.clients, func(i int) {
			t0 := time.Now()
			resp, err := srv.Solve(context.Background(), decoded[i])
			out[i] = call{in: pass[i].in, pass: j, ms: ms(time.Since(t0)), err: err}
			if err == nil {
				out[i].status, out[i].cached, out[i].elapsed = http.StatusOK, resp.Cached, resp.ElapsedSeconds
			}
		})
		if err := srv.Drain(context.Background()); err != nil {
			return nil, err
		}
		inproc = append(inproc, out)
	}
	var admit []float64
	for _, out := range inproc {
		for _, c := range out {
			if c.err == nil && !c.cached {
				admit = append(admit, c.ms-1000*c.elapsed)
			}
		}
	}
	var overhead []float64
	for i := range pass {
		var h, p []float64
		for _, out := range httpCalls {
			h = append(h, out[i].ms)
		}
		for _, out := range inproc {
			p = append(p, out[i].ms)
		}
		overhead = append(overhead, median(h)-median(p))
	}

	// Tracing tax: the stream against tracing and non-tracing servers,
	// alternating which runs first.
	var traced, untraced float64
	for j := 0; j < k; j++ {
		for _, off := range []bool{j%2 == 0, j%2 != 0} {
			out, err := s.httpPass(pass, j, off, nil, nil)
			if err != nil {
				return nil, err
			}
			for _, c := range out {
				if off {
					untraced += c.ms
				} else {
					traced += c.ms
				}
			}
		}
	}

	// Layer replay of each distinct input, against its miss latency.
	firstPos := map[*input]int{}
	for i := len(pass) - 1; i >= 0; i-- {
		firstPos[pass[i].in] = i
	}
	items := make([]*replayItem, len(ins))
	for i, in := range ins {
		var miss []float64
		for _, out := range httpCalls {
			if c := out[firstPos[in]]; c.err == nil && !c.cached {
				miss = append(miss, c.ms)
			}
		}
		items[i] = &replayItem{in: in, body: pass[firstPos[in]].body, e2eMS: median(miss), answer: first[in.id]}
	}
	lm, err := replayLayers(cfg, items, coreOpts, mp.Schoolbook)
	if err != nil {
		return nil, err
	}
	lm.metrics["server.admit_queue_ms_p50"] = median(admit)
	lm.metrics["server.http_overhead_ms_p50"] = median(overhead)
	lm.metrics["telemetry.trace_tax_ms_per_req"] = (traced - untraced) / float64(k*len(pass))
	return lm, nil
}
