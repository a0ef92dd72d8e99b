package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"realroots/internal/server"
	"realroots/internal/telemetry"
)

// TestLoadtestJSONReport checks the loadtest's machine-readable output
// is a valid bench-grid/v1 report carrying each cell's bit ops and
// metrics and no wall time — the shape cmd/validatetrace accepts and
// -compare gates.
func TestLoadtestJSONReport(t *testing.T) {
	cfg := tiny()
	var out, js bytes.Buffer
	cfg.LoadJSON = &js
	if err := Loadtest(&out, cfg); err != nil {
		t.Fatalf("Loadtest: %v\n%s", err, out.String())
	}
	if err := ValidateGridJSON(js.Bytes()); err != nil {
		t.Fatalf("loadtest JSON rejected: %v\n%s", err, js.String())
	}
	var rep GridReport
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	wantCells := len(cfg.Degrees) * len(cfg.Mus) * len(cfg.Procs)
	if len(rep.Cells) != wantCells {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), wantCells)
	}
	for i, c := range rep.Cells {
		if c.WallSeconds != 0 {
			t.Errorf("cell %d: wallSeconds %g, want 0 (the loadtest does not time)", i, c.WallSeconds)
		}
		if c.BitOps <= 0 || c.Metrics.Total().Muls <= 0 {
			t.Errorf("cell %d: missing solver metrics", i)
		}
	}
}

// TestLoadtestCacheSharing pins the dedup arithmetic: each (degree, µ,
// form) triple is solved exactly once and every other request —
// including all cells that differ only in workers — is served from the
// cache. tiny() has 2 degrees × 2 µ × 2 forms = 8 unique solves out of
// 8 cells × 3 requests = 24.
func TestLoadtestCacheSharing(t *testing.T) {
	var out bytes.Buffer
	if err := Loadtest(&out, tiny()); err != nil {
		t.Fatalf("Loadtest: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "total: 24 requests (8 solved, 16 cache-shared), 0 errors") {
		t.Fatalf("totals line disagrees with the dedup arithmetic:\n%s", out.String())
	}
}

// TestLoadtestExpositionGolden scrapes the server's /metrics endpoint
// mid-load and pins the scrubbed exposition: the family structure,
// label sets, and HELP/TYPE text must not drift, while sample values
// and scheduling-dependent per-phase lines are scrubbed out. The scrape
// happens over HTTP against a live rootd handler while loadtest
// requests are in flight.
func TestLoadtestExpositionGolden(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	srv := server.New(server.Config{
		MaxConcurrent: 2,
		CacheEntries:  64,
		Telemetry:     tel,
	})
	running, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		running.Close(ctx)
	}()

	cfg := tiny()
	cfg.ServerURL = running.URL()
	cfg.LoadRequests = 4
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		done <- Loadtest(&out, cfg)
	}()

	scrape := func() []byte {
		resp, err := http.Get(running.URL() + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape: status %d err %v", resp.StatusCode, err)
		}
		return data
	}

	// Mid-load: wait until at least one solve finished, then scrape while
	// the rest of the burst is still being served.
	var expo []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		expo = scrape()
		if bytes.Contains(expo, []byte(`realroots_solves_total{outcome="ok"} 0`)) {
			if time.Now().After(deadline) {
				t.Fatal("no solve completed within 30s")
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		break
	}
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatalf("mid-load exposition invalid: %v\n%s", err, expo)
	}
	if err := <-done; err != nil {
		t.Fatalf("Loadtest: %v", err)
	}

	checkGolden(t, "loadtest_metrics", ScrubExposition(expo))
}

// TestScrubExposition pins the scrubber itself: HELP/TYPE survive,
// values become '#', phase-keyed samples vanish.
func TestScrubExposition(t *testing.T) {
	in := strings.Join([]string{
		"# HELP realroots_roots_total Real roots.",
		"# TYPE realroots_roots_total counter",
		"realroots_roots_total 160",
		`realroots_phase_ops_total{phase="tree",op="mul"} 17`,
		`realroots_phase_bits_total{phase="tree",op="mul",cost="model"} 9`,
		`realroots_operand_bits_ops_total{phase="tree",bits="[16,32)"} 3`,
		`rootd_requests_total{code="ok"} 12`,
		"realroots_solve_seconds_total 0.25",
		"",
	}, "\n")
	want := strings.Join([]string{
		"# HELP realroots_roots_total Real roots.",
		"# TYPE realroots_roots_total counter",
		"realroots_roots_total #",
		`rootd_requests_total{code="ok"} #`,
		"realroots_solve_seconds_total #",
		"",
	}, "\n")
	if got := ScrubExposition([]byte(in)); got != want {
		t.Errorf("ScrubExposition:\n got %q\nwant %q", got, want)
	}
}
