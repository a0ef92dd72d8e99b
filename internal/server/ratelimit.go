package server

import (
	"math"
	"sync"
	"time"
)

// rateLimiter is a per-tenant token bucket: each tenant accrues rate
// tokens per second up to burst, and each request costs one token. The
// clock is injectable so tests drive it deterministically. A nil
// limiter allows everything.
//
// A bucket refilled to burst is identical to a new one, so the limiter
// drops full buckets whenever a new tenant arrives and the map has
// doubled since the last sweep: a client cycling tenant IDs cannot
// grow it without bound, the sweep costs amortized O(1) per new
// tenant, and no allow/deny decision changes.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket
	swept   int // len(buckets) after the last sweep
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate, burst float64, now func() time.Time) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &rateLimiter{rate: rate, burst: burst, now: now, buckets: map[string]*bucket{}}
}

// Allow spends one token from tenant's bucket. When the bucket is
// empty it reports false and how long until a token accrues.
func (l *rateLimiter) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.now()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= 2*l.swept {
			for k, old := range l.buckets {
				if old.tokens+t.Sub(old.last).Seconds()*l.rate >= l.burst {
					delete(l.buckets, k)
				}
			}
			l.swept = len(l.buckets)
		}
		b = &bucket{tokens: l.burst, last: t}
		l.buckets[tenant] = b
	} else {
		dt := t.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens = math.Min(l.burst, b.tokens+dt*l.rate)
			b.last = t
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / l.rate
	return false, time.Duration(math.Ceil(wait * float64(time.Second)))
}
