package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"text/tabwriter"
	"time"
)

// Summary condenses a recorded trace into the utilization report the
// paper's §5 speedup discussion needs: where the wall time went per
// phase, how busy each worker was, and how much of the run was
// effectively serial (the Amdahl fraction limiting speedup).
type Summary struct {
	// Wall is the end-to-end traced time: earliest span start to
	// latest span end, across all lanes and categories.
	Wall time.Duration
	// Phases is the per-phase wall time of the pipeline stages, as
	// PhaseWalls reports it.
	Phases []NamedTime
	// Tasks aggregates top-level CatTask spans by name in first-seen
	// order: busy time and task count per scheduler task kind.
	Tasks []TaskTime
	// Lanes reports per-lane (per-worker) utilization, sorted by ID.
	Lanes []LaneUtil
	// Busy is the total busy time summed over lanes (union per lane,
	// so nested task spans are not double-counted).
	Busy time.Duration
	// Parallelism is Busy/Wall: the average number of simultaneously
	// busy lanes, and the achieved speedup relative to one worker
	// doing the same work back-to-back.
	Parallelism float64
	// SerialFraction is the fraction of Wall during which at most one
	// lane was busy — the effectively serial part of the run that
	// limits speedup (§5.2).
	SerialFraction float64
}

// Efficiency reports achieved parallel efficiency: Parallelism divided
// by the worker count, in [0,1] for a well-formed trace. It is the
// paper's E_P = S_P/P with the measured speedup standing in for S_P.
// workers <= 0 reports 0 (unknown pool size, e.g. a sequential run).
func (s Summary) Efficiency(workers int) float64 {
	if workers <= 0 {
		return 0
	}
	return s.Parallelism / float64(workers)
}

// NamedTime is one named wall-time bucket.
type NamedTime struct {
	Name string
	Wall time.Duration
}

// TaskTime is one task kind's aggregate busy time.
type TaskTime struct {
	Name  string
	Busy  time.Duration
	Count int
}

// LaneUtil is one lane's utilization.
type LaneUtil struct {
	ID    int
	Name  string
	Busy  time.Duration // union of the lane's task spans
	Tasks int           // top-level task spans
	Wait  time.Duration // Σ recorded queue waits
}

type interval struct{ lo, hi time.Duration }

// mergeIntervals returns the total length of the union of the
// intervals (which may overlap or nest).
func mergeIntervals(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total time.Duration
	curLo, curHi := iv[0].lo, iv[0].hi
	for _, x := range iv[1:] {
		if x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	return total + (curHi - curLo)
}

// hasTaskAncestor reports whether span i in spans has a CatTask span
// anywhere in its parent chain (such spans are sub-work of an already
// counted task and excluded from per-kind busy aggregation).
func hasTaskAncestor(spans []Span, i int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if spans[p].Cat == CatTask {
			return true
		}
	}
	return false
}

// PhaseWalls returns the wall time of each pipeline phase: the
// durations of the control lane's CatPhase spans summed by name, in
// first-seen order, open spans skipped. It is one pass over that
// lane's spans, with no sort and no interval merge, so it is cheap
// enough to run after every solve; Summarize fills Summary.Phases from
// it. Call it only after the traced run has completed.
func (t *Tracer) PhaseWalls() []NamedTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ctl := t.lanes[ControlLane]
	t.mu.Unlock()
	if ctl == nil {
		return nil
	}
	var walls []NamedTime
	for _, sp := range ctl.spans {
		if sp.Cat != CatPhase || sp.Dur < 0 {
			continue
		}
		j := slices.IndexFunc(walls, func(w NamedTime) bool { return w.Name == sp.Name })
		if j < 0 {
			j = len(walls)
			walls = append(walls, NamedTime{Name: sp.Name})
		}
		walls[j].Wall += sp.Dur
	}
	return walls
}

// Summarize computes the utilization summary of the recorded trace.
// Call it only after the traced run has completed.
func (t *Tracer) Summarize() Summary {
	var s Summary
	if t == nil {
		return s
	}
	s.Phases = t.PhaseWalls()
	var (
		minStart, maxEnd time.Duration
		haveSpan         bool
		taskIdx          = map[string]int{}
		busyByLane       [][]interval
	)
	for _, l := range t.Lanes() {
		spans := l.Spans()
		lu := LaneUtil{ID: l.ID, Name: l.Name}
		var busy []interval
		for i, sp := range spans {
			if sp.Dur < 0 {
				continue // open span: ignore rather than skew
			}
			if !haveSpan || sp.Start < minStart {
				minStart = sp.Start
			}
			if !haveSpan || sp.End() > maxEnd {
				maxEnd = sp.End()
			}
			haveSpan = true
			if sp.Cat == CatPhase {
				continue // a container, not busy work; PhaseWalls times it
			}
			busy = append(busy, interval{sp.Start, sp.End()})
			if !hasTaskAncestor(spans, i) {
				j, ok := taskIdx[sp.Name]
				if !ok {
					j = len(s.Tasks)
					taskIdx[sp.Name] = j
					s.Tasks = append(s.Tasks, TaskTime{Name: sp.Name})
				}
				s.Tasks[j].Busy += sp.Dur
				s.Tasks[j].Count++
				lu.Tasks++
				lu.Wait += sp.Wait
			}
		}
		if len(busy) == 0 && lu.Tasks == 0 {
			// A lane with only phase spans (pure orchestration) still
			// appears, with zero busy time.
			if len(spans) > 0 {
				s.Lanes = append(s.Lanes, lu)
				busyByLane = append(busyByLane, nil)
			}
			continue
		}
		lu.Busy = mergeIntervals(busy)
		s.Busy += lu.Busy
		s.Lanes = append(s.Lanes, lu)
		busyByLane = append(busyByLane, busy)
	}
	if haveSpan {
		s.Wall = maxEnd - minStart
	}
	if s.Wall > 0 {
		s.Parallelism = float64(s.Busy) / float64(s.Wall)
		s.SerialFraction = float64(s.Wall-parallelTime(busyByLane)) / float64(s.Wall)
	}
	return s
}

// parallelTime returns the total time during which at least two lanes
// were busy simultaneously. Each lane's intervals are reduced to their
// union first, so concurrency counts lanes, not nested spans.
func parallelTime(busyByLane [][]interval) time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	for _, busy := range busyByLane {
		// Merge within the lane: sort and fold overlapping intervals,
		// emitting +1/-1 edges for the merged runs.
		if len(busy) == 0 {
			continue
		}
		iv := make([]interval, len(busy))
		copy(iv, busy)
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
		curLo, curHi := iv[0].lo, iv[0].hi
		flush := func() {
			edges = append(edges, edge{curLo, +1}, edge{curHi, -1})
		}
		for _, x := range iv[1:] {
			if x.lo > curHi {
				flush()
				curLo, curHi = x.lo, x.hi
				continue
			}
			if x.hi > curHi {
				curHi = x.hi
			}
		}
		flush()
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta // opens before closes at ties
	})
	var total time.Duration
	depth := 0
	var since time.Duration
	for _, e := range edges {
		if depth >= 2 {
			total += e.at - since
		}
		depth += e.delta
		since = e.at
	}
	return total
}

// WriteText renders the summary as the plain-text utilization report.
func (s Summary) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Utilization summary (wall %.3fs)\n", s.Wall.Seconds())

	if len(s.Phases) > 0 {
		fmt.Fprintln(w, "\nPipeline phases (wall time):")
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "phase\twall(s)\tshare%\t")
		for _, p := range s.Phases {
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t\n", p.Name, p.Wall.Seconds(), pctDur(p.Wall, s.Wall))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(s.Tasks) > 0 {
		fmt.Fprintln(w, "\nTask kinds (busy time):")
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "task\tbusy(s)\tshare%\tcount\t")
		for _, tk := range s.Tasks {
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%d\t\n", tk.Name, tk.Busy.Seconds(), pctDur(tk.Busy, s.Busy), tk.Count)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(s.Lanes) > 0 {
		fmt.Fprintln(w, "\nWorkers:")
		tw := tabwriter.NewWriter(w, 4, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "lane\tbusy(s)\tbusy%\ttasks\tavg-wait(ms)\t")
		for _, l := range s.Lanes {
			avgWait := 0.0
			if l.Tasks > 0 {
				avgWait = l.Wait.Seconds() * 1e3 / float64(l.Tasks)
			}
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f\t%d\t%.3f\t\n", l.Name, l.Busy.Seconds(), pctDur(l.Busy, s.Wall), l.Tasks, avgWait)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "\ntotal busy %.3fs across %d lane(s)\n", s.Busy.Seconds(), len(s.Lanes))
	fmt.Fprintf(w, "parallelism / achieved speedup vs one worker (busy/wall): %.2fx\n", s.Parallelism)
	fmt.Fprintf(w, "serial fraction (wall time with <=1 lane busy): %.2f\n", s.SerialFraction)
	return nil
}

func pctDur(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
