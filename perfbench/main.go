// Command perfbench is the repository's benchmark. It runs one workload
// through the entry points users call — realroots.FindRoots, or rootd
// over HTTP — checks every answer independently, and prints the
// end-to-end metrics as the last line of standard output, one JSON
// object. With --trace 1 it runs the same workload and then replays its
// inputs through the public functions of each layer, printing the
// per-layer metrics instead. See README.md for the workloads, the
// metrics and how to read a run.
//
//	bash perfbench/run.sh --workload lib-highdeg --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_solve", "ms"},
	{"bitops_per_solve", "count"},
	{"retained_heap_mb", "MB"},
	{"goodput_frac", "ratio"},
}

// perLayer lists the metrics a --trace 1 run reports, in print order.
var perLayer = []metricDef{
	{"poly.squarefree_ms_per_solve", "ms"},
	{"poly.repeated_root_frac", "ratio"},
	{"remseq.ms_per_solve", "ms"},
	{"tree.ms_per_solve", "ms"},
	{"interval.preinterval_ms_per_solve", "ms"},
	{"interval.solve_ms_per_solve", "ms"},
	{"interval.sieve_muls_per_solve", "count"},
	{"interval.bisection_muls_per_solve", "count"},
	{"interval.newton_muls_per_solve", "count"},
	{"sched.tasks_per_solve", "count"},
	{"sched.queue_wait_ms_per_solve", "ms"},
	{"sched.parallelism", "ratio"},
	{"sched.serial_frac", "ratio"},
	{"mp.muls_per_solve", "count"},
	{"mp.divs_per_solve", "count"},
	{"mp.small_operand_frac", "ratio"},
	{"mp.tier_frac.packed", "ratio"},
	{"mp.tier_frac.karatsuba", "ratio"},
	{"mp.tier_frac.toom3", "ratio"},
	{"mp.replay_ms_per_solve", "ms"},
	{"metrics.counter_tax_ms_per_solve", "ms"},
	{"charpoly.ms_per_matrix", "ms"},
	{"server.decode_us_per_req", "us"},
	{"server.admit_queue_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.cache_hit_frac", "ratio"},
	{"server.rejected_frac", "ratio"},
	{"telemetry.trace_tax_ms_per_req", "ms"},
	{"runtime.alloc_mb_per_solve", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.peak_rss_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"},
	{"core.unattributed_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root, for the source fingerprint
	out      string // directory for result files and Chrome traces
	tiny     bool   // seconds-long inputs for the self-tests
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0 on
// success, 1 when the run failed or an answer failed the independent
// check, 2 for usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	start := time.Now()
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.workload = cfg.workload
	rep.fingerprint = hostFingerprint(cfg)
	rep.wallSeconds = time.Since(start).Seconds()
	if err := rep.write(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct {
		fmt.Fprintln(stderr, "perfbench: an answer failed the independent check:", rep.checkErr)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "target length of the measured phase; it sets the number of whole passes")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	fs.StringVar(&cfg.root, "root", ".", "repository root (for the source fingerprint)")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result files and Chrome traces")
	fs.BoolVar(&cfg.tiny, "tiny", false, "tiny inputs that run in seconds (self-tests)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return cfg, errors.New("usage")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

// report is one run's outcome.
type report struct {
	workload    string
	correct     bool
	checkErr    error
	attempted   int
	failed      int
	metrics     map[string]float64
	notes       []string // human-readable lines printed before the JSON line
	fingerprint map[string]string
	wallSeconds float64
	passes      []passStat // the measured phase, pass by pass
	samples     []sample   // every measured call, in order
}

// call is one measured call — a library call or an HTTP request — with
// its answer in the checker's form.
type call struct {
	in      *input
	pass    int
	ms      float64      // from call start to decoded answer
	err     error        // nil when answered
	status  int          // rootd: the HTTP status
	cached  bool         // rootd: answered from the result cache
	bitOps  int64        // rootd: the response's bitOps
	elapsed float64      // rootd: the solve's elapsedSeconds
	roots   []answerRoot // non-nil when answered
}

// assemble builds what every workload reports the same way: the answer
// check, the call counts and samples, the notes on the degree × µ mix,
// failures and the tail percentile, and the metrics that come from the
// calls and the meter alone. It returns each input's first answer (nil
// for inputs never answered).
func assemble(ins []*input, calls []call, m *meter) (*report, [][]answerRoot) {
	chk := checkCalls(ins, calls)
	rep := &report{metrics: map[string]float64{}, passes: m.passes, correct: chk.err == nil, checkErr: chk.err, attempted: len(calls)}
	var lat []float64
	answered, good := 0, 0
	mix := map[string]int{}
	var firstFail error
	for i, c := range calls {
		lat = append(lat, c.ms)
		rep.samples = append(rep.samples, sample{Cell: c.in.cell(), MS: c.ms, Cached: c.cached})
		if c.err == nil {
			answered++
			mix[c.in.cell()]++
		} else if firstFail == nil {
			firstFail = fmt.Errorf("%s, pass %d: %w", c.in.cell(), c.pass, c.err)
		}
		if chk.good[i] {
			good++
		}
	}
	rep.failed = len(calls) - good
	rep.notes = append(rep.notes, mixNote(mix))
	if firstFail != nil {
		rep.notes = append(rep.notes, "first failed call: "+firstFail.Error())
	}
	tail, pct := tailLatency(lat)
	rep.notes = append(rep.notes, fmt.Sprintf("latency_tail_ms is p%.1f: %d of %d samples lie beyond it", pct, min(10, len(lat)), len(lat)))
	n := float64(len(calls))
	rep.metrics["throughput_per_s"] = float64(answered) / m.wall.Seconds()
	rep.metrics["latency_p50_ms"] = median(lat)
	rep.metrics["latency_tail_ms"] = tail
	rep.metrics["cpu_ms_per_solve"] = ms(m.cpu) / n
	rep.metrics["goodput_frac"] = float64(good) / n
	rep.metrics["runtime.alloc_mb_per_solve"] = float64(m.alloc) / 1e6 / n
	rep.metrics["runtime.gc_cpu_frac"] = m.gcFrac()
	rep.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	return rep, chk.first
}

// sample is one measured call, kept in the result file.
type sample struct {
	Cell   string  `json:"cell"`
	MS     float64 `json:"ms"`
	Cached bool    `json:"cached,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the notes, a metric table and the JSON result line, and
// stores the same result with its fingerprint under cfg.out.
func (r *report) write(cfg config, stdout io.Writer) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	keys := make([]string, 0, len(r.fingerprint))
	for k := range r.fingerprint {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var host []string
	for _, k := range keys {
		host = append(host, fmt.Sprintf("%s=%q", k, r.fingerprint[k]))
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d trace=%v seconds=%g wall=%.1fs\n", r.workload, cfg.seed, cfg.trace, cfg.seconds, r.wallSeconds)
	fmt.Fprintf(stdout, "# host %s\n", strings.Join(host, " "))
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", d.name, r.metrics[d.name], d.unit)
	}
	js, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", js); err != nil {
		return err
	}
	return r.save(cfg, line)
}

// save writes the result, stamped with the host fingerprint and the
// run's notes, to <out>/<workload>-seed<N>-trace<T>.json.
func (r *report) save(cfg config, line resultLine) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  float64           `json:"seconds"`
		Trace    bool              `json:"trace"`
		Host     map[string]string `json:"host"`
		Notes    []string          `json:"notes"`
		Result   resultLine        `json:"result"`
		Passes   []passStat        `json:"passes"`
		Samples  []sample          `json:"samples"`
	}{r.workload, cfg.seed, cfg.seconds, cfg.trace, r.fingerprint, r.notes, line, r.passes, r.samples}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, cfg.seed, boolInt(cfg.trace))
	return os.WriteFile(filepath.Join(cfg.out, name), append(js, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
