package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compareFixture builds a valid two-cell grid snapshot.
func compareFixture(t *testing.T) *GridReport {
	t.Helper()
	cfg := tiny()
	cfg.Simulate = true
	rep, err := RunGrid(cfg)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	return rep
}

func TestLoadGridJSONRoundTrip(t *testing.T) {
	rep := compareFixture(t)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := LoadGridJSON(data)
	if err != nil {
		t.Fatalf("LoadGridJSON: %v", err)
	}
	if len(got.Cells) != len(rep.Cells) {
		t.Fatalf("round trip lost cells: %d != %d", len(got.Cells), len(rep.Cells))
	}
	if _, err := LoadGridJSON([]byte(`{"schema":"bogus"}`)); err == nil {
		t.Fatal("LoadGridJSON accepted a wrong schema")
	}
}

func TestCompareGridsIdentical(t *testing.T) {
	rep := compareFixture(t)
	cmp := CompareGrids(rep, rep)
	if len(cmp.Matched) != len(rep.Cells) {
		t.Fatalf("matched %d of %d cells", len(cmp.Matched), len(rep.Cells))
	}
	if len(cmp.OnlyOld) != 0 || len(cmp.OnlyNew) != 0 {
		t.Fatalf("identical grids reported unmatched cells: %v / %v", cmp.OnlyOld, cmp.OnlyNew)
	}
	var buf bytes.Buffer
	n, err := cmp.WriteTable(&buf)
	if err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if n != 0 {
		t.Fatalf("identical grids regressed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Fatalf("missing success footer:\n%s", buf.String())
	}
}

func TestCompareGridsRegression(t *testing.T) {
	oldRep := compareFixture(t)
	data, _ := json.Marshal(oldRep)
	var newRep GridReport
	if err := json.Unmarshal(data, &newRep); err != nil {
		t.Fatalf("clone: %v", err)
	}
	// Only the first cell's 50% bit-op growth passes the 25% gate: the
	// second cell's 20% growth stays under it, and the third cell's
	// doubled wall time is not gated at all.
	if len(newRep.Cells) < 3 {
		t.Fatalf("fixture has %d cells, want at least 3", len(newRep.Cells))
	}
	newRep.Cells[0].BitOps = oldRep.Cells[0].BitOps * 3 / 2
	newRep.Cells[1].BitOps = oldRep.Cells[1].BitOps * 6 / 5
	newRep.Cells[2].WallSeconds = oldRep.Cells[2].WallSeconds*2 + 1e-6

	var buf bytes.Buffer
	n, err := CompareGrids(oldRep, &newRep).WriteTable(&buf)
	if err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if n != 1 || strings.Count(buf.String(), "REGRESSION") != 1 {
		t.Fatalf("%d regressions, want 1 (the +50%% bit-op cell):\n%s", n, buf.String())
	}
	if first := strings.SplitN(buf.String(), "\n", 4)[2]; !strings.Contains(first, "REGRESSION") {
		t.Fatalf("the +50%% bit-op cell is not the one flagged:\n%s", buf.String())
	}
}

// TestCommittedSnapshotsCompareClean loads committed snapshots, among
// them BENCH_pr8.json, a loadtest report whose cells still carry the
// p50Seconds, p99Seconds and throughputRPS fields that reports no
// longer write, and compares each with itself.
func TestCommittedSnapshotsCompareClean(t *testing.T) {
	for _, name := range []string{"BENCH_pr3.json", "BENCH_pr8.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := LoadGridJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if n, err := CompareGrids(rep, rep).WriteTable(&buf); err != nil || n != 0 {
			t.Fatalf("%s against itself: %d regressions, err %v:\n%s", name, n, err, buf.String())
		}
	}
}

func TestCompareGridsUnmatchedCellsDoNotGate(t *testing.T) {
	oldRep := compareFixture(t)
	newRep := &GridReport{Schema: GridSchema, Cells: oldRep.Cells[:1]}
	extra := oldRep.Cells[0]
	extra.Degree += 1000
	newRep.Cells = append([]GridCell{}, newRep.Cells...)
	newRep.Cells = append(newRep.Cells, extra)

	cmp := CompareGrids(oldRep, newRep)
	if len(cmp.Matched) != 1 {
		t.Fatalf("matched %d cells, want 1", len(cmp.Matched))
	}
	if len(cmp.OnlyOld) != len(oldRep.Cells)-1 || len(cmp.OnlyNew) != 1 {
		t.Fatalf("unmatched split wrong: onlyOld=%d onlyNew=%d", len(cmp.OnlyOld), len(cmp.OnlyNew))
	}
	var buf bytes.Buffer
	n, err := cmp.WriteTable(&buf)
	if err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if n != 0 {
		t.Fatalf("unmatched cells gated:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "only in old snapshot") ||
		!strings.Contains(buf.String(), "only in new snapshot") {
		t.Fatalf("unmatched cells not reported:\n%s", buf.String())
	}
}

func TestPctChangeZeroBaselines(t *testing.T) {
	if got := pctChange(0, 0); got != 0 {
		t.Fatalf("pctChange(0,0) = %v, want 0", got)
	}
	if got := pctChange(0, 5); got != 100 {
		t.Fatalf("pctChange(0,5) = %v, want 100", got)
	}
	if got := pctChange(10, 5); got != -50 {
		t.Fatalf("pctChange(10,5) = %v, want -50", got)
	}
}
