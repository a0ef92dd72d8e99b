package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Custom metric families. The built-in realroots_* families are wired
// directly into Registry; servers layered on the solver (rootd)
// register their own families here so one /metrics endpoint renders
// everything with shared HELP/TYPE dedup, deterministic ordering, and
// the strict-validator guarantees. Families are emitted after the
// built-ins, in registration order; within a family, series are sorted
// by label values.
//
// Registration is idempotent by family name: registering an existing
// name returns the existing collector (counters and histograms keep
// accumulating across re-registrations, which keeps shared hubs safe),
// except the scrape-time families (RegisterGaugeFunc,
// RegisterCounterFunc), which rebind their callback — they describe
// current state, so the latest registrant wins.

// family is one registered exposition family.
type family struct {
	name, help, typ string
	write           func(e *expoWriter)
}

// collector ties a family to its typed handle for idempotent lookup.
type collector struct {
	fam *family
	val any // *CounterVec, *Float64, *HistogramVec, or *binding
}

// famState is the registry's custom-family store, separate from the
// built-in counters so WritePrometheus can render custom families
// without holding the built-ins' lock semantics hostage.
type famState struct {
	mu      sync.Mutex
	ordered []*family
	byName  map[string]*collector
}

func (s *famState) register(name, help, typ string, val any, write func(e *expoWriter)) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byName == nil {
		s.byName = map[string]*collector{}
	}
	if c, ok := s.byName[name]; ok {
		return c.val, false
	}
	f := &family{name: name, help: help, typ: typ, write: write}
	s.ordered = append(s.ordered, f)
	s.byName[name] = &collector{fam: f, val: val}
	return val, true
}

func (s *famState) writeAll(e *expoWriter) {
	s.mu.Lock()
	fams := make([]*family, len(s.ordered))
	copy(fams, s.ordered)
	s.mu.Unlock()
	for _, f := range fams {
		e.family(f.name, f.help, f.typ)
		f.write(e)
	}
}

// CounterVec is an integer counter family over one label with a fixed,
// pre-registered value set; every series is always emitted (zeros
// included) so scrapes are stable from the first request.
type CounterVec struct {
	label  string
	values []string
	counts []atomic.Int64
}

// Add increments the series for value by delta. Unknown values are
// dropped (the value set is fixed at registration).
func (c *CounterVec) Add(value string, delta int64) {
	if c == nil {
		return
	}
	for i, v := range c.values {
		if v == value {
			c.counts[i].Add(delta)
			return
		}
	}
}

// Value returns the current count for value (0 if unknown).
func (c *CounterVec) Value(value string) int64 {
	if c == nil {
		return 0
	}
	for i, v := range c.values {
		if v == value {
			return c.counts[i].Load()
		}
	}
	return 0
}

// RegisterCounterVec registers (or returns the existing) counter
// family over one label with the given fixed label-value set, emitted
// in the given order.
func (g *Registry) RegisterCounterVec(name, help, label string, values []string) *CounterVec {
	vals := make([]string, len(values))
	copy(vals, values)
	c := &CounterVec{label: label, values: vals, counts: make([]atomic.Int64, len(vals))}
	got, _ := g.families.register(name, help, "counter", c, func(e *expoWriter) {
		for i, v := range c.values {
			e.sampleInt(name, c.counts[i].Load(), c.label, v)
		}
	})
	return got.(*CounterVec)
}

// binding holds a scrape-time family's callback. Re-registering the
// family rebinds it: such a family describes current state, so the
// latest registrant owns it.
type binding[F any] struct {
	mu sync.Mutex
	fn F
}

func (b *binding[F]) get() F {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fn
}

// registerBinding registers a family whose samples write renders from
// fn at scrape time, or rebinds an existing family of that name to fn.
func registerBinding[F any](g *Registry, name, help, typ string, fn F, write func(e *expoWriter, fn F)) {
	b := &binding[F]{fn: fn}
	got, fresh := g.families.register(name, help, typ, b, func(e *expoWriter) {
		write(e, b.get())
	})
	if !fresh {
		old := got.(*binding[F])
		old.mu.Lock()
		old.fn = fn
		old.mu.Unlock()
	}
}

// RegisterGaugeFunc registers a gauge whose value is read from fn at
// scrape time. Re-registering an existing name rebinds the callback to
// fn — the latest registrant owns the gauge.
func (g *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	registerBinding(g, name, help, "gauge", fn, func(e *expoWriter, fn func() float64) {
		e.sampleFloat(name, fn())
	})
}

// RegisterCounterFunc registers a counter family over one label whose
// series read reports at scrape time, each through emit, in the order
// it reports them. Like RegisterGaugeFunc, re-registering an existing
// name rebinds read to the latest registrant.
func RegisterCounterFunc[V int64 | float64](g *Registry, name, help, label string, read func(emit func(value string, v V))) {
	registerBinding(g, name, help, "counter", read, func(e *expoWriter, read func(func(string, V))) {
		read(func(value string, v V) {
			switch v := any(v).(type) {
			case int64:
				e.sampleInt(name, v, label, value)
			case float64:
				e.sampleFloat(name, v, label, value)
			}
		})
	})
}

// HistogramVec is a histogram family over a fixed list of label names
// with dynamically created series. Series creation is copy-on-write;
// Observe on an existing series is lock-free.
type HistogramVec struct {
	labels []string
	uppers []float64

	mu     sync.Mutex
	series atomic.Pointer[map[string]*Histogram] // key = label values joined with 0xff
}

const labelSep = "\xff"

// RegisterHistogramVec registers (or returns the existing) histogram
// family over the given label names and bucket upper bounds.
func (g *Registry) RegisterHistogramVec(name, help string, uppers []float64, labels ...string) *HistogramVec {
	h := &HistogramVec{labels: append([]string(nil), labels...), uppers: append([]float64(nil), uppers...)}
	empty := map[string]*Histogram{}
	h.series.Store(&empty)
	got, _ := g.families.register(name, help, "histogram", h, func(e *expoWriter) {
		h.write(e, name)
	})
	return got.(*HistogramVec)
}

// With returns the series for the given label values (one per label
// name, in registration order), creating it on first use.
func (h *HistogramVec) With(values ...string) *Histogram {
	if h == nil {
		return nil
	}
	if len(values) != len(h.labels) {
		return nil // misuse; drop rather than corrupt the exposition
	}
	key := strings.Join(values, labelSep)
	if s := (*h.series.Load())[key]; s != nil {
		return s
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := *h.series.Load()
	if s := cur[key]; s != nil {
		return s
	}
	next := make(map[string]*Histogram, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	s := NewHistogram(h.uppers)
	next[key] = s
	h.series.Store(&next)
	return s
}

// write renders every series: cumulative _bucket samples (with an
// OpenMetrics-style exemplar comment when the bucket has one), then
// _sum and _count. Series are ordered by label values.
func (h *HistogramVec) write(e *expoWriter, name string) {
	cur := *h.series.Load()
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		values := strings.Split(k, labelSep)
		base := make([]string, 0, 2*len(h.labels)+2)
		for i, l := range h.labels {
			base = append(base, l, values[i])
		}
		buckets, sum, count := cur[k].snapshot()
		for _, b := range buckets {
			le := "+Inf"
			if !math.IsInf(b.le, 1) {
				le = strconv.FormatFloat(b.le, 'g', -1, 64)
			}
			line := sampleLine(name+"_bucket", strconv.FormatUint(b.cum, 10), append(append([]string{}, base...), "le", le)...)
			if b.exemplar != nil {
				line += fmt.Sprintf(" # {request_id=%q} %s",
					escapeLabel(b.exemplar.RequestID),
					strconv.FormatFloat(b.exemplar.Value, 'g', -1, 64))
			}
			e.printf("%s\n", line)
		}
		e.sample(name+"_sum", strconv.FormatFloat(sum, 'g', -1, 64), base...)
		e.sample(name+"_count", strconv.FormatUint(count, 10), base...)
	}
}
