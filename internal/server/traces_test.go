package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// recordedTracer builds a small completed trace with nSpans control-lane
// task spans.
func recordedTracer(t *testing.T, nSpans int) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	l := tr.Lane(trace.ControlLane, "control")
	for i := 0; i < nSpans; i++ {
		l.Begin(fmt.Sprintf("task%d", i), trace.CatTask)
		l.End()
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func retained(req string) RetainedTrace {
	return RetainedTrace{
		RequestID:   req,
		Tenant:      "acme",
		Outcome:     "error",
		Reason:      ReasonError,
		Start:       time.Unix(1700000000, 0),
		WallSeconds: 0.25,
		Workers:     2,
		Efficiency:  0.5,
		Spans:       3,
	}
}

func TestStoreRingRetention(t *testing.T) {
	s := newTraceStore()
	const n = traceRingCapacity + 2
	for i := 0; i < n; i++ {
		s.noteSeen()
		if seq := s.add(retained(fmt.Sprintf("r%d", i)), recordedTracer(t, 2)); seq != uint64(i+1) {
			// Sequence numbers are monotonic and never reused.
			t.Fatalf("seq of trace %d = %d, want %d", i, seq, i+1)
		}
	}
	// The ring keeps the newest traceRingCapacity, newest first.
	d := s.dump()
	if len(d.Traces) != traceRingCapacity || d.Capacity != traceRingCapacity {
		t.Fatalf("retained %d traces (capacity %d), want %d", len(d.Traces), d.Capacity, traceRingCapacity)
	}
	for i, want := range []uint64{n, n - 1, n - 2} {
		if d.Traces[i].Seq != want {
			t.Errorf("traces[%d].Seq = %d, want %d", i, d.Traces[i].Seq, want)
		}
	}
	// Evicted traces are unreachable; live ones resolve by seq.
	if s.get(1) != nil || s.get(2) != nil {
		t.Error("evicted trace still reachable")
	}
	if got := s.get(4); got == nil || got.RequestID != "r3" {
		t.Errorf("get(4) = %+v, want requestId r3", got)
	}

	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Seen != n || d.Retained != n || d.Evicted != 2 {
		t.Errorf("seen/retained/evicted = %d/%d/%d, want %d/%d/2", d.Seen, d.Retained, d.Evicted, n, n)
	}
	if d.ByReason[ReasonError] != n {
		t.Errorf("byReason[error] = %d, want %d", d.ByReason[ReasonError], n)
	}

	// The dump round-trips through JSON and the validator entry point.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(d); err != nil {
		t.Fatal(err)
	}
	if err := ValidateStoreJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestStoreChromeExport(t *testing.T) {
	s := newTraceStore()
	tr := recordedTracer(t, 3)
	tr.SetRequestID("req-chrome")
	seq := s.add(retained("req-chrome"), tr)
	var buf bytes.Buffer
	if err := s.get(seq).WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("req-chrome")) {
		t.Error("chrome export lost the request ID")
	}
	// A trace retained without spans refuses the export rather than
	// writing an invalid file.
	if err := (&RetainedTrace{}).WriteChrome(&buf); err == nil {
		t.Error("spanless retained trace exported")
	}
}

// TestStoreConcurrentAddDump races writers against readers: the
// tail-sampler admit/evict path (add + noteSeen) against /debug/traces
// scrapes (dump, get). Run with -race.
func TestStoreConcurrentAddDump(t *testing.T) {
	s := newTraceStore()
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.noteSeen()
				s.add(retained(fmt.Sprintf("w%d-%d", w, i)), nil)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := s.dump().Validate(); err != nil {
				t.Errorf("mid-write dump invalid: %v", err)
				return
			}
			s.get(uint64(i))
		}
	}()
	wg.Wait()
	d := s.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Retained != writers*perWriter {
		t.Errorf("retained %d, want %d", d.Retained, writers*perWriter)
	}
	if len(d.Traces) != traceRingCapacity {
		t.Errorf("ring holds %d, want %d", len(d.Traces), traceRingCapacity)
	}
}

func TestValidateStoreJSONRejectsGarbage(t *testing.T) {
	if err := ValidateStoreJSON([]byte("not json")); err == nil {
		t.Error("garbage validated")
	}
	if err := ValidateStoreJSON([]byte(`{"schema":"wrong"}`)); err == nil {
		t.Error("wrong schema validated")
	}
}

func TestTailSamplerPriorities(t *testing.T) {
	s := newTailSampler()
	cases := []struct {
		name string
		info traceInfo
		want string
	}{
		{"forced beats error", traceInfo{forced: true, outcome: telemetry.OutcomeError}, ReasonForced},
		{"error", traceInfo{outcome: telemetry.OutcomeBudget}, ReasonError},
		{"panic is an error", traceInfo{outcome: telemetry.OutcomePanic}, ReasonError},
		{"healthy solve dropped", traceInfo{outcome: telemetry.OutcomeOK}, ""},
	}
	for _, tc := range cases {
		if got := s.consider(tc.info); got != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestTailSamplerSlowAfterWarmup(t *testing.T) {
	s := newTailSampler()

	// During warmup nothing classifies slow, even outliers.
	if got := s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 100}); got != "" {
		t.Fatalf("first request retained as %q before any threshold exists", got)
	}
	if _, ok := s.threshold(); ok {
		t.Fatal("threshold trusted with one observation")
	}

	// Fill past warmup with ~1ms solves.
	for i := 0; i < tailWarmup+8; i++ {
		s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 0.001})
	}
	threshold, ok := s.threshold()
	if !ok {
		t.Fatal("threshold still untrusted past warmup")
	}
	if threshold <= 0 || threshold > 0.1 {
		t.Fatalf("threshold %v seconds, want small positive", threshold)
	}
	if got := s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 5}); got != ReasonSlow {
		t.Errorf("5s outlier against ~1ms window classified %q, want slow", got)
	}
	if got := s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 0.0001}); got != "" {
		t.Errorf("fast solve retained as %q", got)
	}
}

func TestTailSamplerWindowRotation(t *testing.T) {
	s := newTailSampler()
	// Fill a full window of slow solves, then a regime change to fast
	// ones: after the second rotation the threshold must reflect the
	// fast window, not the stale slow one.
	for i := 0; i < tailWindow; i++ {
		s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 1})
	}
	th1, ok := s.threshold()
	if !ok || th1 < 0.5 {
		t.Fatalf("threshold after slow window = %v (ok=%v), want ~1s", th1, ok)
	}
	for i := 0; i < tailWindow; i++ {
		s.consider(traceInfo{outcome: telemetry.OutcomeOK, seconds: 0.001})
	}
	th2, ok := s.threshold()
	if !ok || th2 >= th1 {
		t.Fatalf("threshold did not follow the regime change: %v -> %v", th1, th2)
	}
}

// TestTailSamplerConcurrent races consider (the admit path, rotating
// windows under load) against threshold reads and the store's
// admit/evict cycle — the full tail-sampling pipeline under -race.
func TestTailSamplerConcurrent(t *testing.T) {
	s := newTailSampler()
	store := newTraceStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*tailWindow; i++ {
				info := traceInfo{outcome: telemetry.OutcomeOK, seconds: float64(i%100) / 1000}
				if i%97 == 0 {
					info.outcome = telemetry.OutcomeError
				}
				store.noteSeen()
				if reason := s.consider(info); reason != "" {
					store.add(RetainedTrace{RequestID: "r", Outcome: string(info.outcome), Reason: reason}, nil)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.threshold()
			if err := store.dump().Validate(); err != nil {
				t.Errorf("mid-run store dump invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	d := store.dump()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ByReason[ReasonError] == 0 {
		t.Error("no error traces retained across 8 windows of injected errors")
	}
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugTracesAndTenantsEndpoints(t *testing.T) {
	s, hs := newTestServer(t, Config{})

	// Retain one error trace and account one tenant.
	tr := trace.New()
	tr.SetRequestID("req-1")
	l := tr.Lane(trace.ControlLane, "control")
	l.Begin("solve", trace.CatPhase)
	l.End()
	s.traces.noteSeen()
	seq := s.traces.add(RetainedTrace{
		RequestID: "req-1", Tenant: "acme", Outcome: "error",
		Reason: ReasonError, Start: time.Now(),
		WallSeconds: 0.1, Workers: 2, Spans: 1,
	}, tr)
	account(s.tenants, "acme", "ok", "miss", nil)
	base := hs.URL

	// JSON dump validates and carries the retained trace.
	code, body := getStatus(t, base+"/debug/traces?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces json status %d", code)
	}
	if err := ValidateStoreJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/traces dump invalid: %v", err)
	}
	if !strings.Contains(body, "req-1") {
		t.Error("/debug/traces dump missing retained trace")
	}

	// HTML index renders with a link to the Chrome export.
	code, body = getStatus(t, base+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, "req-1") || !strings.Contains(body, fmt.Sprintf(`href="/debug/traces/%d"`, seq)) {
		t.Fatalf("/debug/traces html: status %d, body %q", code, body)
	}

	// Per-trace Chrome export download.
	code, body = getStatus(t, fmt.Sprintf("%s/debug/traces/%d", base, seq))
	if code != http.StatusOK {
		t.Fatalf("/debug/traces/%d status %d", seq, code)
	}
	if err := trace.ValidateChrome([]byte(body)); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if code, _ := getStatus(t, base+"/debug/traces/999"); code != http.StatusNotFound {
		t.Errorf("absent seq status %d, want 404", code)
	}
	if code, _ := getStatus(t, base+"/debug/traces/nonsense"); code != http.StatusBadRequest {
		t.Errorf("bad seq status %d, want 400", code)
	}

	// Tenants dump, JSON and HTML.
	code, body = getStatus(t, base+"/debug/tenants?format=json")
	if code != http.StatusOK {
		t.Fatalf("/debug/tenants json status %d", code)
	}
	if err := ValidateTenantsJSON([]byte(body)); err != nil {
		t.Fatalf("/debug/tenants dump invalid: %v", err)
	}
	code, body = getStatus(t, base+"/debug/tenants")
	if code != http.StatusOK || !strings.Contains(body, "acme") {
		t.Fatalf("/debug/tenants html: status %d", code)
	}
}
