package harness

import (
	"fmt"
	"io"
	"time"

	"realroots/internal/core"
	"realroots/internal/telemetry"
)

// DefaultSoakSolves is the soak workload when neither Config.SoakSolves
// nor Config.SoakDuration is set — small and fixed so the default run
// (and its golden output) is deterministic.
const DefaultSoakSolves = 16

// Soak is the long-running operational workload behind
// `rootbench -exp soak`: it cycles through the configured grid cells
// solving each with telemetry attached, exercising the structured solve
// log and the metrics registry under sustained load, then summarizes
// the hub's registry. It is the workload CI and
// operators point the -telemetry debug server at.
func Soak(w io.Writer, cfg Config) error {
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(telemetry.Config{})
	}
	solves := cfg.SoakSolves
	dur := cfg.SoakDuration
	if solves <= 0 && dur <= 0 {
		solves = DefaultSoakSolves
	}

	type cell struct {
		n     int
		mu    uint
		procs int
	}
	var cells []cell
	for _, n := range cfg.Degrees {
		for _, mu := range cfg.Mus {
			for _, procs := range cfg.Procs {
				cells = append(cells, cell{n, mu, procs})
			}
		}
	}

	fmt.Fprintf(w, "Soak: sustained solve workload over %d grid cells (telemetry always-on)\n", len(cells))
	start := time.Now()
	done := 0
	for {
		if err := cfg.interrupted(); err != nil {
			return err
		}
		if solves > 0 && done >= solves {
			break
		}
		if dur > 0 && time.Since(start) >= dur {
			break
		}
		c := cells[done%len(cells)]
		seed := cfg.Seeds[done%len(cfg.Seeds)]
		p := Instance(seed, c.n)
		opts := core.Options{Mu: c.mu, Ctx: cfg.Ctx, Profile: cfg.Profile, Telemetry: tel}
		if cfg.Simulate {
			opts.SimulateWorkers = c.procs
		} else {
			opts.Workers = c.procs
		}
		if _, err := core.FindRoots(p, opts); err != nil {
			if err := cfg.interrupted(); err != nil {
				return err
			}
			return fmt.Errorf("soak solve %d (n=%d µ=%d P=%d): %w", done, c.n, c.mu, c.procs, err)
		}
		done++
	}
	elapsed := time.Since(start)

	tot := tel.Registry().Totals()
	failures := int64(0)
	for o, n := range tot.Solves {
		if o != telemetry.OutcomeOK {
			failures += n
		}
	}
	fmt.Fprintf(w, "%d solves in %.3fs (%.1f solves/s), %d failures\n",
		done, elapsed.Seconds(), float64(done)/elapsed.Seconds(), failures)
	fmt.Fprint(w, "outcomes:")
	for _, o := range telemetry.Outcomes {
		if n := tot.Solves[o]; n > 0 {
			fmt.Fprintf(w, " %s=%d", o, n)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "roots %d, bit ops %d, sched tasks %d, panics %d\n",
		tot.Roots, tot.BitOps, tot.SchedTasks, tot.Panics)
	return nil
}
