package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"realroots/internal/metrics"
	"realroots/internal/sched"
)

// Registry accumulates per-run telemetry into process-lifetime totals
// and renders them in Prometheus text exposition format (version
// 0.0.4). All metric families are prefixed realroots_. Updates happen
// once per finished run (not per arithmetic operation), so the
// registry adds no hot-path cost.
type Registry struct {
	// families holds custom (non-realroots_) metric families registered
	// by layered servers; see families.go.
	families famState

	mu           sync.Mutex
	runsStarted  int64
	runsFinished int64
	solves       map[Outcome]int64
	solveSecs    float64
	roots        int64
	bitOps       int64
	agg          metrics.Report
	pool         sched.PoolStats // counters summed
}

func newRegistry() *Registry {
	return &Registry{solves: make(map[Outcome]int64)}
}

func (g *Registry) runStarted() {
	g.mu.Lock()
	g.runsStarted++
	g.mu.Unlock()
}

func (g *Registry) finishRun(o Outcome, elapsed time.Duration, roots int, bitOps int64, rep metrics.Report, s sched.PoolStats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.runsFinished++
	g.solves[o]++
	g.solveSecs += elapsed.Seconds()
	g.roots += int64(roots)
	g.bitOps += bitOps
	g.agg = g.agg.Add(rep)
	g.pool.Executed += s.Executed
	g.pool.Panics += s.Panics
}

// Totals is a plain snapshot of the registry's headline numbers, for
// programmatic consumers (the soak experiment's summary).
type Totals struct {
	Solves     map[Outcome]int64
	Roots      int64
	BitOps     int64
	SchedTasks int64
	Panics     int64
}

// Totals returns a copy of the headline totals (zero value for a nil
// registry).
func (g *Registry) Totals() Totals {
	if g == nil {
		return Totals{Solves: map[Outcome]int64{}}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := Totals{
		Solves:     make(map[Outcome]int64, len(g.solves)),
		Roots:      g.roots,
		BitOps:     g.bitOps,
		SchedTasks: g.pool.Executed,
		Panics:     g.pool.Panics,
	}
	for o, n := range g.solves {
		t.Solves[o] = n
	}
	return t
}

// expoWriter accumulates exposition lines, tracking the first error.
type expoWriter struct {
	w   io.Writer
	err error
}

func (e *expoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// family emits the HELP and TYPE header for one metric family.
func (e *expoWriter) family(name, help, typ string) {
	e.printf("# HELP %s %s\n", name, help)
	e.printf("# TYPE %s %s\n", name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sampleLine renders one sample line. labels come as name=value pairs
// in emission order.
func sampleLine(name, value string, labels ...string) string {
	if len(labels) == 0 {
		return name + " " + value
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	sb.WriteByte(' ')
	sb.WriteString(value)
	return sb.String()
}

// sample emits one sample line.
func (e *expoWriter) sample(name string, value string, labels ...string) {
	e.printf("%s\n", sampleLine(name, value, labels...))
}

func (e *expoWriter) sampleInt(name string, v int64, labels ...string) {
	e.sample(name, strconv.FormatInt(v, 10), labels...)
}

func (e *expoWriter) sampleFloat(name string, v float64, labels ...string) {
	e.sample(name, strconv.FormatFloat(v, 'g', -1, 64), labels...)
}

// bucketLabel renders histogram bucket b as its half-open bit-length
// interval, e.g. "[16,32)"; the unbounded top bucket is "[262144,inf)".
func bucketLabel(b int) string {
	lo, hi := metrics.BucketRange(b)
	if hi == 0 {
		return fmt.Sprintf("[%d,inf)", lo)
	}
	return fmt.Sprintf("[%d,%d)", lo, hi)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format. Output is deterministic: families in fixed order, outcome
// and phase labels in their declaration order, histogram buckets
// ascending. Zero-valued per-phase samples are omitted (families whose
// phases recorded nothing still get their HELP/TYPE header).
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return fmt.Errorf("telemetry: nil registry")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	e := &expoWriter{w: w}

	e.family("realroots_runs_active", "Solve runs started and not yet finished.", "gauge")
	e.sampleInt("realroots_runs_active", g.runsStarted-g.runsFinished)

	e.family("realroots_solves_total", "Finished solve runs by outcome.", "counter")
	for _, o := range Outcomes {
		e.sampleInt("realroots_solves_total", g.solves[o], "outcome", string(o))
	}

	e.family("realroots_solve_seconds_total", "Wall-clock seconds spent in finished solve runs.", "counter")
	e.sampleFloat("realroots_solve_seconds_total", g.solveSecs)

	e.family("realroots_roots_total", "Real roots found by finished solve runs.", "counter")
	e.sampleInt("realroots_roots_total", g.roots)

	e.family("realroots_bit_ops_total", "Cumulative bit operations (Σ bitlen·bitlen over multiplications and divisions, schoolbook model).", "counter")
	e.sampleInt("realroots_bit_ops_total", g.bitOps)

	e.family("realroots_phase_ops_total", "Arithmetic operations by pipeline phase and kind.", "counter")
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		pr := g.agg.Phases[p]
		name := p.String()
		for _, op := range [...]struct {
			kind string
			n    int64
		}{{"mul", pr.Muls}, {"div", pr.Divs}, {"add", pr.Adds}, {"eval", pr.Evals}} {
			if op.n != 0 {
				e.sampleInt("realroots_phase_ops_total", op.n, "phase", name, "op", op.kind)
			}
		}
	}

	e.family("realroots_phase_bits_total", "Bit cost by phase and operation under the paper's schoolbook cost model (Σ bitlen·bitlen, whatever the arithmetic profile; cost is always model).", "counter")
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		pr := g.agg.Phases[p]
		name := p.String()
		for _, c := range [...]struct {
			op string
			n  int64
		}{{"mul", pr.MulBits}, {"div", pr.DivBits}} {
			if c.n != 0 {
				e.sampleInt("realroots_phase_bits_total", c.n, "phase", name, "op", c.op, "cost", "model")
			}
		}
	}

	e.family("realroots_operand_bits_ops_total", "Multiplications and divisions by phase and log2 bit-length bucket of the larger operand.", "counter")
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		pr := g.agg.Phases[p]
		name := p.String()
		for b := 0; b < metrics.BitLenBuckets; b++ {
			if pr.BitLen[b] != 0 {
				e.sampleInt("realroots_operand_bits_ops_total", pr.BitLen[b], "phase", name, "bits", bucketLabel(b))
			}
		}
	}

	e.family("realroots_sign_evals_total", "Sign evaluations by phase and the kernel that decided them (screen = certified float64 screen, exact = exact scaled Horner); both record the exact recurrence's operations.", "counter")
	for p := metrics.Phase(0); p < metrics.NumPhases; p++ {
		for k := metrics.Kernel(0); k < metrics.NumKernels; k++ {
			if n := g.agg.Signs[p][k]; n != 0 {
				e.sampleInt("realroots_sign_evals_total", n, "phase", p.String(), "kernel", k.String())
			}
		}
	}

	e.family("realroots_sched_tasks_total", "Scheduler tasks executed.", "counter")
	e.sampleInt("realroots_sched_tasks_total", g.pool.Executed)
	e.family("realroots_sched_panics_total", "Task panics isolated by the scheduler.", "counter")
	e.sampleInt("realroots_sched_panics_total", g.pool.Panics)

	g.families.writeAll(e)

	return e.err
}
