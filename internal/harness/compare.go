package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// This file implements the bench regression gate behind
// `rootbench -compare old.json new.json`: a differ over two
// bench-grid/v1 snapshots (results/BENCH_*.json, freshly generated
// grids and loadtest reports) that gates each matched cell's
// bit-operation count. Bit operations are exact and deterministic, so
// the gate means the same on every machine; wall time is perfbench's
// to measure.

// GatePct is the gate: a matched cell fails when its bit operations
// grew by more than this percentage.
const GatePct = 25.0

// LoadGridJSON parses and validates one bench-grid/v1 snapshot.
func LoadGridJSON(data []byte) (*GridReport, error) {
	if err := ValidateGridJSON(data); err != nil {
		return nil, err
	}
	var rep GridReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("grid json: %w", err)
	}
	return &rep, nil
}

// CellKey identifies one grid cell across snapshots.
type CellKey struct {
	Degree  int
	Mu      uint
	Procs   int
	Seed    int64
	Profile string // "" = schoolbook
}

func (k CellKey) String() string {
	prof := k.Profile
	if prof == "" {
		prof = "schoolbook"
	}
	return fmt.Sprintf("n=%d µ=%d P=%d seed=%d %s", k.Degree, k.Mu, k.Procs, k.Seed, prof)
}

// CellDiff is one matched cell's bit operations in both snapshots.
type CellDiff struct {
	Key              CellKey
	OldBits, NewBits int64
}

// BitsPct returns the bit-operation change in percent (new vs old).
func (d CellDiff) BitsPct() float64 { return pctChange(float64(d.OldBits), float64(d.NewBits)) }

func pctChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return 100 * (new - old) / old
}

// GridComparison is the result of comparing two snapshots.
type GridComparison struct {
	Matched []CellDiff
	OnlyOld []CellKey // cells present only in the old snapshot
	OnlyNew []CellKey // cells present only in the new snapshot
}

// CompareGrids matches the two snapshots' cells by (degree, µ, procs,
// seed, profile). Unmatched cells are reported but never gate: a
// fresh grid may legitimately cover only a quick subset of a committed
// snapshot.
func CompareGrids(old, new *GridReport) *GridComparison {
	key := func(c GridCell) CellKey {
		return CellKey{Degree: c.Degree, Mu: c.Mu, Procs: c.Procs, Seed: c.Seed, Profile: c.Profile}
	}
	oldByKey := make(map[CellKey]GridCell, len(old.Cells))
	for _, c := range old.Cells {
		oldByKey[key(c)] = c
	}
	cmp := &GridComparison{}
	seen := make(map[CellKey]bool, len(new.Cells))
	for _, nc := range new.Cells {
		k := key(nc)
		seen[k] = true
		oc, ok := oldByKey[k]
		if !ok {
			cmp.OnlyNew = append(cmp.OnlyNew, k)
			continue
		}
		cmp.Matched = append(cmp.Matched, CellDiff{
			Key:     k,
			OldBits: oc.BitOps, NewBits: nc.BitOps,
		})
	}
	for _, oc := range old.Cells {
		if k := key(oc); !seen[k] {
			cmp.OnlyOld = append(cmp.OnlyOld, k)
		}
	}
	sortKeys := func(ks []CellKey) {
		sort.Slice(ks, func(i, j int) bool { return ks[i].String() < ks[j].String() })
	}
	sortKeys(cmp.OnlyOld)
	sortKeys(cmp.OnlyNew)
	return cmp
}

// WriteTable renders the regression table and returns the number of
// cells whose bit operations grew past GatePct.
func (c *GridComparison) WriteTable(w io.Writer) (regressions int, err error) {
	fmt.Fprintf(w, "Bench compare: %d matched cells, gate bit ops > %.0f%%\n", len(c.Matched), GatePct)
	tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "cell\tbits-old\tbits-new\tbits%\t\t")
	for _, d := range c.Matched {
		pct, flag := d.BitsPct(), ""
		switch {
		case pct > GatePct:
			flag = "REGRESSION"
			regressions++
		case pct <= -GatePct:
			flag = "improved"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%+.1f\t%s\t\n", d.Key, d.OldBits, d.NewBits, pct, flag)
	}
	if err := tw.Flush(); err != nil {
		return regressions, err
	}
	for _, k := range c.OnlyOld {
		fmt.Fprintf(w, "only in old snapshot (not gated): %s\n", k)
	}
	for _, k := range c.OnlyNew {
		fmt.Fprintf(w, "only in new snapshot (not gated): %s\n", k)
	}
	if regressions > 0 {
		fmt.Fprintf(w, "%d cell(s) regressed more than %.0f%% on bit ops\n", regressions, GatePct)
	} else {
		fmt.Fprintf(w, "no regressions past %.0f%% on bit ops\n", GatePct)
	}
	return regressions, nil
}
