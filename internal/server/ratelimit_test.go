package server

import (
	"fmt"
	"testing"
	"time"
)

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestRateLimiterBurstAndRefill(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(2, 3, clock.now) // 2 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("t"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("t")
	if ok {
		t.Fatal("4th request allowed, bucket should be empty")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %s, want (0, 1s] at 2 tokens/s", retry)
	}
	clock.advance(retry)
	if ok, _ := l.Allow("t"); !ok {
		t.Fatal("denied after waiting the advertised retryAfter")
	}
	// Refill caps at burst.
	clock.advance(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("t"); ok {
			allowed++
		}
	}
	if allowed != 3 {
		t.Fatalf("after long idle, %d requests allowed, want burst=3", allowed)
	}
}

func TestRateLimiterTenantsIndependent(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(1, 1, clock.now)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("a's first request denied")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("a's second request allowed")
	}
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("b throttled by a's spending")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	var l *rateLimiter // rate ≤ 0 yields nil: everything allowed
	if l = newRateLimiter(0, 5, nil); l != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.Allow("t"); !ok {
			t.Fatal("nil limiter denied a request")
		}
	}
}

// TestRateLimiterBoundedTenants cycles one-shot tenant IDs, the
// cardinality attack the ledger's row cap exists to stop: every bucket
// refills within 0.1 s, so the limiter must not keep one per tenant.
func TestRateLimiterBoundedTenants(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	l := newRateLimiter(10, 2, clock.now)
	for i := 0; i < 100_000; i++ {
		if ok, _ := l.Allow(fmt.Sprintf("t%d", i)); !ok {
			t.Fatalf("first request of tenant %d denied", i)
		}
		clock.advance(time.Millisecond)
	}
	if n := len(l.buckets); n > 400 {
		t.Errorf("%d buckets held after 100000 one-shot tenants, want at most 400", n)
	}
}
