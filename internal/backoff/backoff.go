// Package backoff is the repository's one retry-delay policy: capped
// exponential growth with multiplicative jitter. Every layer that asks a
// caller to come back later — the admission controller's Retry-After
// header, the fabric coordinator re-queueing a cell whose lease was lost,
// the worker client backing off a flaky coordinator — derives its delay
// here, so retries de-synchronize instead of thundering back in lockstep.
//
// Jitter draws from a caller-owned seeded generator, never the global
// math/rand: the same seed replays the same delay schedule, which is what
// lets the fabric's retry paths stay under the determinism lint and lets
// tests assert exact schedules.
package backoff

import (
	"math/rand/v2"
	"strconv"
	"time"
)

// Policy shapes a retry schedule. The zero value is not useful; start
// from Default and override fields as needed.
type Policy struct {
	// Base is the attempt-0 delay.
	Base time.Duration
	// Cap bounds the grown delay before jitter is applied.
	Cap time.Duration
	// Factor is the per-attempt growth multiplier (values below 1 are
	// treated as 1: constant delay).
	Factor float64
	// Jitter is the total width of the multiplicative jitter band,
	// centered on 1: a delay d becomes uniform in
	// [d*(1-Jitter/2), d*(1+Jitter/2)). 0 disables jitter; values are
	// clamped to [0, 1].
	Jitter float64
}

// Default is the fleet-wide schedule: 100ms doubling to a 10s cap with a
// ±25% jitter band.
func Default() Policy {
	return Policy{Base: 100 * time.Millisecond, Cap: 10 * time.Second, Factor: 2, Jitter: 0.5}
}

// Delay returns the jittered delay for the given zero-based attempt.
// rng supplies the jitter draw and may be nil, which disables jitter —
// callers that need de-synchronization must pass their seeded generator.
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	base := p.Base
	if base <= 0 {
		base = time.Millisecond
	}
	factor := p.Factor
	if factor < 1 {
		factor = 1
	}
	cap := p.Cap
	if cap < base {
		cap = base
	}
	d := float64(base)
	limit := float64(cap)
	for i := 0; i < attempt && d < limit; i++ {
		d *= factor
	}
	if d > limit {
		d = limit
	}
	if rng != nil && p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		d *= 1 - j/2 + j*rng.Float64()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// RetryAfter renders a delay as an HTTP Retry-After header value: whole
// seconds, rounded up, at least 1 — the header's granularity is seconds,
// and "0" would invite an immediate, un-backed-off retry.
func RetryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ParseRetryAfter reads a Retry-After header's delay-seconds form. The
// HTTP-date form is not supported; it reports ok=false and the caller
// falls back to its own schedule.
func ParseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
