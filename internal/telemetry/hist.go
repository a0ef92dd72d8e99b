package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Float64 is an atomic float64 accumulator: a lock-free counter for
// fractional quantities (solve seconds). The zero value is
// ready to use. Add is a CAS loop over the float's bit pattern, so
// concurrent adds never drop updates — the fix for the hand-rolled
// bits-in-an-int64 accumulation rootd used to carry.
type Float64 struct {
	bits atomic.Uint64
}

// Add atomically adds v.
func (f *Float64) Add(v float64) {
	for {
		old := f.bits.Load()
		new_ := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new_) {
			return
		}
	}
}

// Load atomically reads the value.
func (f *Float64) Load() float64 {
	return math.Float64frombits(f.bits.Load())
}

// SecondsBuckets is the fixed latency ladder used by the rootd request
// histograms: sub-millisecond cache hits up through minute-scale
// high-µ solves. Fixed buckets keep the exposition deterministic and
// make Observe a binary search plus two atomic adds.
var SecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Exemplar pins one concrete observation to a histogram bucket: the
// request ID that landed there and its exact value. The exposition
// renders it OpenMetrics-style after the bucket sample, so a p99 bucket
// can be traced back to a /debug/requests entry or the solve log.
type Exemplar struct {
	RequestID string
	Value     float64
}

// Histogram is a fixed-bucket latency histogram with cumulative bucket
// counts, a total sum/count, and one exemplar per bucket (the most
// recent observation that fell in it). All methods are safe for
// concurrent use; Observe is lock-free. A nil *Histogram no-ops.
type Histogram struct {
	// uppers holds the finite bucket upper bounds, ascending. counts
	// has len(uppers)+1 entries; the last is the +Inf overflow bucket.
	uppers    []float64
	counts    []atomic.Uint64
	sum       Float64
	count     atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
}

// NewHistogram creates a histogram over the given ascending finite
// bucket upper bounds (SecondsBuckets is the standard ladder).
func NewHistogram(uppers []float64) *Histogram {
	u := make([]float64, len(uppers))
	copy(u, uppers)
	sort.Float64s(u)
	return &Histogram{
		uppers:    u,
		counts:    make([]atomic.Uint64, len(u)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(u)+1),
	}
}

// bucketOf returns the index of the first bucket whose upper bound
// holds v (len(uppers) = the +Inf bucket).
func (h *Histogram) bucketOf(v float64) int {
	return sort.SearchFloat64s(h.uppers, v)
}

// Observe records one value. exemplarID, if non-empty, becomes the
// bucket's exemplar (latest observation wins).
func (h *Histogram) Observe(v float64, exemplarID string) {
	if h == nil {
		return
	}
	b := h.bucketOf(v)
	h.counts[b].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if exemplarID != "" {
		h.exemplars[b].Store(&Exemplar{RequestID: exemplarID, Value: v})
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the qth quantile by linear interpolation within
// the bucket holding the target rank — the same estimate a Prometheus
// histogram_quantile would produce from the exposition.
//
// The contract at the edges: an empty histogram (or nil receiver)
// returns 0; q ≤ 0 and NaN return the lower edge of the first
// non-empty bucket; q ≥ 1 returns the upper edge of the highest
// non-empty bucket; and observations in the +Inf overflow bucket clamp
// to the highest finite bound (their true magnitude is unknown).
// Out-of-range q used to extrapolate instead — q > 1 walked off the
// ladder and reported its top bound even when every observation sat in
// the first bucket, and q < 0 interpolated below a bucket's lower edge
// into negative latency (pinned by TestQuantileEdgeCases).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for b := range h.counts {
		n := float64(h.counts[b].Load())
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if b >= len(h.uppers) { // +Inf bucket: clamp
			if len(h.uppers) == 0 {
				return 0
			}
			return h.uppers[len(h.uppers)-1]
		}
		lo := 0.0
		if b > 0 {
			lo = h.uppers[b-1]
		}
		return lo + (h.uppers[b]-lo)*(rank-cum)/n
	}
	if len(h.uppers) == 0 {
		return 0
	}
	return h.uppers[len(h.uppers)-1]
}

// snapshotBucket is one rendered bucket: its cumulative count up to
// and including the bound, and the bucket's exemplar if any.
type snapshotBucket struct {
	le       float64 // math.Inf(1) for the overflow bucket
	cum      uint64
	exemplar *Exemplar
}

// snapshot renders the histogram's buckets cumulatively, plus sum and
// count, for the exposition writer. The per-bucket counts are read
// low-to-high after count, so cumulative counts never exceed the
// count sample (scrape self-consistency under concurrent Observe is
// best-effort, as with any atomic multi-value scrape).
func (h *Histogram) snapshot() (buckets []snapshotBucket, sum float64, count uint64) {
	buckets = make([]snapshotBucket, len(h.counts))
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		le := math.Inf(1)
		if b < len(h.uppers) {
			le = h.uppers[b]
		}
		buckets[b] = snapshotBucket{le: le, cum: cum, exemplar: h.exemplars[b].Load()}
	}
	return buckets, h.sum.Load(), cum
}
