// Command rootbench regenerates the paper's tables and figures (see
// DESIGN.md §3 for the experiment index).
//
// Usage:
//
//	rootbench -exp table2                 # one experiment, quick grid
//	rootbench -exp all -full              # everything on the paper's full grid
//	rootbench -exp speedups -degrees 35,50,70 -procs 1,2,4,8,16 -mus 4,32
//	rootbench -exp conformance            # differential-oracle sweep (≥200 cases)
//	rootbench -exp soak -telemetry :9090  # sustained workload with live /metrics
//	rootbench -exp loadtest -load-out load.json   # drive rootd (in-process or -server URL), count requests and bit ops
//	rootbench -compare old.json new.json  # bit-op regression gate over two grid snapshots
//
// The full grid (degrees up to 70, all µ, all worker counts, 3 seeds)
// takes a while — the paper's own Table 2 runs alone are hours of 1991
// machine time; on modern hardware expect minutes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"realroots/internal/harness"
	"realroots/internal/mp"
	"realroots/internal/telemetry"
)

// simulateNotice is emitted as a header comment at the top of the
// output (so saved result files are self-describing) whenever the
// timing experiments run in virtual-time simulation mode.
const simulateNotice = "# rootbench: multiprocessor experiments use virtual-time simulation (see DESIGN.md); pass -simulate=false for wall-clock timing"

func main() {
	// First SIGINT/SIGTERM cancels the sweep cleanly (partial results
	// stay valid, see the "# interrupted" footer); a second one hits the
	// default handler because NotifyContext unregisters after firing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return runCtx(context.Background(), args, stdout, stderr)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rootbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id: "+strings.Join(harness.Names(), ", ")+", or all")
		full     = fs.Bool("full", false, "use the paper's full grid (degrees 10-70, µ 4-32, P 1-16, 3 seeds)")
		degrees  = fs.String("degrees", "", "comma-separated degree list (overrides the grid)")
		mus      = fs.String("mus", "", "comma-separated µ list")
		procs    = fs.String("procs", "", "comma-separated worker-count list")
		seeds    = fs.String("seeds", "", "comma-separated seed list")
		reps     = fs.Int("reps", 0, "timing repetitions per cell (minimum is reported)")
		checks   = fs.Int("checks", 0, "cap the conformance experiment's case count (0 = full suite)")
		profile  = fs.String("profile", "schoolbook", "arithmetic profile: schoolbook (the paper's cost model), fast (subquadratic kernels), or both (grid JSON only: measure every cell under each)")
		simulate = fs.Bool("simulate", runtime.NumCPU() == 1,
			"simulate P virtual processors from the real task graph (for the times/speedups experiments on hosts with few cores; defaults to true on single-core hosts)")
		traceOut   = fs.String("trace", "", "run one traced solve of the grid's largest cell and write Chrome trace-event JSON (chrome://tracing, Perfetto) to this file; prints a utilization summary and skips -exp")
		jsonOut    = fs.String("json", "", "run the grid and write a machine-readable JSON report (schema "+harness.GridSchema+") to this file ('-' for stdout); skips -exp")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile (go tool pprof) to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (go tool pprof) to this file on exit")

		telemetryAddr = fs.String("telemetry", "", "serve /metrics and /debug/pprof on this address (e.g. :9090) for the duration of the run")
		slogOut       = fs.String("slog", "", "write the structured solve log (JSON lines) to this file ('-' for stderr)")
		metricsOut    = fs.String("metrics-out", "", "write the final Prometheus text exposition to this file on exit")
		soakSolves    = fs.Int("soak-solves", 0, "soak experiment: stop after this many solves (default "+strconv.Itoa(harness.DefaultSoakSolves)+" when no -soak-seconds)")
		soakSeconds   = fs.Float64("soak-seconds", 0, "soak experiment: stop after this much wall time")

		serverURL   = fs.String("server", "", "loadtest experiment: target a running rootd at this base URL (default: in-process server)")
		loadReqs    = fs.Int("load-requests", 0, "loadtest experiment: requests per grid cell (default 3)")
		loadClients = fs.Int("load-concurrency", 0, "loadtest experiment: concurrent client goroutines (default 8)")
		loadTenants = fs.Int("load-tenants", 0, "loadtest experiment: tenants the requests are spread over (default 4)")
		loadOut     = fs.String("load-out", "", "loadtest experiment: write a "+harness.GridSchema+" JSON report with each cell's bit ops and metrics to this file ('-' for stdout)")

		compare = fs.Bool("compare", false, fmt.Sprintf("compare two bench-grid JSON snapshots (old.json new.json as positional args), print a bit-op table, and exit 1 when a matched cell's bit ops grew more than %g%%; skips -exp", harness.GatePct))
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The compare gate is pure file diffing — no solves, no telemetry.
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "rootbench: unexpected arguments %q (positional args are only used with -compare)\n", fs.Args())
		return 2
	}

	cfg := harness.Quick()
	if *full {
		cfg = harness.Default()
	}
	cfg.Ctx = ctx
	cfg.Simulate = *simulate
	switch *profile {
	case "both":
		cfg.GridProfiles = []mp.Profile{mp.Schoolbook, mp.Fast}
	default:
		pr, err := mp.ParseProfile(*profile)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		cfg.Profile = pr
	}
	if *degrees != "" {
		v, err := parseInts(*degrees)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		cfg.Degrees = v
	}
	if *mus != "" {
		v, err := parseInts(*mus)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		var us []uint
		for _, x := range v {
			us = append(us, uint(x))
		}
		cfg.Mus = us
	}
	if *procs != "" {
		v, err := parseInts(*procs)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		cfg.Procs = v
	}
	if *seeds != "" {
		v, err := parseInts(*seeds)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		var ss []int64
		for _, x := range v {
			ss = append(ss, int64(x))
		}
		cfg.Seeds = ss
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	cfg.ConformanceChecks = *checks
	cfg.SoakSolves = *soakSolves
	if *soakSeconds > 0 {
		cfg.SoakDuration = time.Duration(*soakSeconds * float64(time.Second))
	}
	cfg.ServerURL = *serverURL
	cfg.LoadRequests = *loadReqs
	cfg.LoadConcurrency = *loadClients
	cfg.LoadTenants = *loadTenants
	if *loadOut != "" {
		if *loadOut == "-" {
			cfg.LoadJSON = stdout
		} else {
			f, err := os.Create(*loadOut)
			if err != nil {
				fmt.Fprintf(stderr, "rootbench: %v\n", err)
				return 2
			}
			defer f.Close()
			cfg.LoadJSON = f
		}
	}

	// Telemetry hub: created when any telemetry flag asks for it. All
	// operational output goes to stderr so -json '-' stdout stays pure.
	// (The soak experiment creates its own private hub when none is
	// configured, so it works without these flags too.)
	if *telemetryAddr != "" || *slogOut != "" || *metricsOut != "" {
		tcfg := telemetry.Config{}
		if *slogOut != "" {
			lw := io.Writer(stderr)
			if *slogOut != "-" {
				f, err := os.Create(*slogOut)
				if err != nil {
					fmt.Fprintf(stderr, "rootbench: %v\n", err)
					return 2
				}
				defer f.Close()
				lw = f
			}
			tcfg.Logger = slog.New(slog.NewJSONHandler(lw, nil))
		}
		tel := telemetry.New(tcfg)
		cfg.Telemetry = tel

		if *telemetryAddr != "" {
			srv, err := tel.Serve(*telemetryAddr)
			if err != nil {
				fmt.Fprintf(stderr, "rootbench: %v\n", err)
				return 2
			}
			fmt.Fprintf(stderr, "rootbench: telemetry on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
			defer srv.Close()
		}

		if *metricsOut != "" {
			defer func() {
				if err := writeFileWith(*metricsOut, tel.Registry().WritePrometheus); err != nil {
					fmt.Fprintf(stderr, "rootbench: %v\n", err)
					if code == 0 {
						code = 1
					}
				}
			}()
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "rootbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(stderr, "rootbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "rootbench: %v\n", err)
			}
		}()
	}

	// Observability modes replace the experiment sweep.
	if *traceOut != "" || *jsonOut != "" {
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(stderr, "rootbench: %v\n", err)
				return 2
			}
			err = harness.TraceRun(stdout, cfg, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if code := reportErr(err, "trace", stdout, stderr); code != 0 {
				return code
			}
		}
		if *jsonOut != "" {
			w := stdout
			var f *os.File
			if *jsonOut != "-" {
				var err error
				f, err = os.Create(*jsonOut)
				if err != nil {
					fmt.Fprintf(stderr, "rootbench: %v\n", err)
					return 2
				}
				w = f
			}
			err := harness.WriteGridJSON(w, cfg)
			if f != nil {
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if code := reportErr(err, "json", stdout, stderr); code != 0 {
				return code
			}
		}
		return 0
	}

	if *simulate {
		// Header comment so saved result files are self-describing; the
		// JSON modes carry the same fact in their "simulate" field.
		fmt.Fprintln(stdout, simulateNotice)
	}
	names := []string{*exp}
	if *exp == "all" {
		names = harness.Names()
	}
	for _, name := range names {
		runExp, ok := harness.Experiments[name]
		if !ok {
			fmt.Fprintf(stderr, "rootbench: unknown experiment %q (have: %s)\n", name, strings.Join(harness.Names(), ", "))
			return 2
		}
		if code := reportErr(runExp(stdout, cfg), name, stdout, stderr); code != 0 {
			return code
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// reportErr maps an experiment error to the process exit code: 0 on
// success, 130 on a clean interruption (partial results remain valid),
// 1 otherwise.
func reportErr(err error, name string, stdout, stderr io.Writer) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, harness.ErrInterrupted) {
		// The rows flushed so far are complete, valid results; mark the
		// file as a truncated sweep and use the conventional 128+SIGINT
		// exit status.
		fmt.Fprintln(stdout, "# interrupted: sweep stopped early, results above are partial")
		fmt.Fprintf(stderr, "rootbench: %s: interrupted\n", name)
		return 130
	}
	fmt.Fprintf(stderr, "rootbench: %s: %v\n", name, err)
	return 1
}

// runCompare implements the -compare gate: load two bench-grid/v1
// snapshots, print the per-cell bit-op table, and exit 1 when any
// matched cell's bit ops grew past harness.GatePct.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "rootbench: -compare needs exactly two snapshot files: old.json new.json")
		return 2
	}
	load := func(path string) (*harness.GridReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep, err := harness.LoadGridJSON(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rep, nil
	}
	oldRep, err := load(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "rootbench: %v\n", err)
		return 2
	}
	newRep, err := load(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "rootbench: %v\n", err)
		return 2
	}
	n, err := harness.CompareGrids(oldRep, newRep).WriteTable(stdout)
	if err != nil {
		fmt.Fprintf(stderr, "rootbench: compare: %v\n", err)
		return 1
	}
	if n > 0 {
		return 1
	}
	return 0
}

// writeFileWith creates path and streams write into it, preferring the
// write error over the close error.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
