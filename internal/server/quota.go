package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cfdclean/internal/wal"
)

// Per-tenant admission control. Every hosted session carries a quota:
// token-bucket rate limits on operations and on tuples, plus hard caps
// on relation size and SSE subscriber count. Limits are enforced in the
// registry BEFORE a batch reaches the worker queue, so one tenant's
// burst is rejected at its own front door instead of occupying queue
// slots (and engine passes) the other tenants need. A session's quota
// is what its create request set, zero meaning unlimited; it is session
// state, recorded in every snapshot, restored on recovery and shipped to
// replicas.
//
// A rate-limited request is answered 429 with a Retry-After header
// computed from the bucket's actual refill time (integer seconds,
// rounded up, so a compliant client never retries into another
// rejection); the precise wait rides alongside in
// X-Retry-After-Ms for clients that want sub-second backoff. The hard
// caps are not retryable-later in the same sense: a relation at its
// size cap answers 403 (shrink or raise the quota), a session at its
// subscriber cap answers 409 (disconnect a consumer first).

// Registry errors specific to admission control.
var (
	// ErrRelationFull reports an insert batch that would push the
	// session's relation past its size cap — mapped to 403.
	ErrRelationFull = errors.New("server: relation size quota exceeded")
	// ErrSubscriberLimit reports a subscribe refused because the session
	// is at its SSE subscriber cap — mapped to 409.
	ErrSubscriberLimit = errors.New("server: subscriber limit reached")
)

// RateLimitError reports a request rejected by a token-bucket limiter;
// RetryAfter is how long until the bucket has refilled enough to admit
// the same request. Mapped to 429 with a Retry-After header.
type RateLimitError struct {
	What       string // "ops" or "tuples"
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("server: %s rate limit exceeded, retry in %v", e.What, e.RetryAfter.Round(time.Millisecond))
}

// retryAfterSeconds renders the header value: integer seconds, rounded
// up, at least 1 — a compliant client that waits this long is
// guaranteed admission for the same request size.
func (e *RateLimitError) retryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// sessionQuota is a create request's quota as the session keeps it: the
// limits as sent, zero (or no quota at all) meaning unlimited. A
// negative limit is refused, naming its field.
func sessionQuota(wq *WireQuota) (wal.Quota, error) {
	if wq == nil {
		return wal.Quota{}, nil
	}
	neg := ""
	switch {
	case wq.OpsPerSec < 0:
		neg = "ops_per_sec"
	case wq.TuplesPerSec < 0:
		neg = "tuples_per_sec"
	case wq.MaxRelationSize < 0:
		neg = "max_relation_size"
	case wq.MaxSubscribers < 0:
		neg = "max_subscribers"
	}
	if neg != "" {
		return wal.Quota{}, fmt.Errorf("quota.%s must not be negative (0 means unlimited)", neg)
	}
	return wal.Quota(*wq), nil
}

// wireQuota renders a session's quota for listings; nil when the session
// is entirely unlimited, so unquota'd services stay byte-stable.
func wireQuota(q wal.Quota) *WireQuota {
	if q == (wal.Quota{}) {
		return nil
	}
	w := WireQuota(q)
	return &w
}

// tokenBucket is a standard token-bucket rate limiter: capacity `burst`
// tokens, refilled at `rate` tokens/second. take is mutex-guarded and
// O(1) — cheap enough for the admission path of every request.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

// newTokenBucket builds a bucket holding one second of rate (at least
// one token, so a single maximal request is always admissible), full at
// start.
func newTokenBucket(rate float64) *tokenBucket {
	burst := math.Max(rate, 1)
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take withdraws n tokens if available; otherwise it reports how long
// until the bucket will hold n, or be full when n exceeds the burst.
func (b *tokenBucket) take(n float64, now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	// A request beyond the burst would never fit the bucket: it waits for
	// a full one and is then charged in full, the deficit carried into
	// future windows.
	need := math.Min(n, b.burst)
	if b.tokens >= need {
		b.tokens -= n
		return true, 0
	}
	// Rounded up, so the advertised wait always suffices.
	return false, time.Duration(math.Ceil((need - b.tokens) / b.rate * float64(time.Second)))
}

// refund returns tokens withdrawn for a request that was ultimately not
// admitted (e.g. the ops token of a batch the tuple limiter rejected).
func (b *tokenBucket) refund(n float64) {
	b.mu.Lock()
	b.tokens = math.Min(b.burst, b.tokens+n)
	b.mu.Unlock()
}

// quotaState is one hosted session's live admission-control state: nil
// limiter fields mean unlimited.
type quotaState struct {
	cfg    wal.Quota
	ops    *tokenBucket
	tuples *tokenBucket
}

func newQuotaState(cfg wal.Quota) *quotaState {
	q := &quotaState{cfg: cfg}
	if cfg.OpsPerSec > 0 {
		q.ops = newTokenBucket(cfg.OpsPerSec)
	}
	if cfg.TuplesPerSec > 0 {
		q.tuples = newTokenBucket(cfg.TuplesPerSec)
	}
	return q
}

// admit runs the full admission check for one write batch of `tuples`
// arriving tuples against a session currently holding `size` tuples
// (with `deletes` of them leaving in the same batch). Order: hard size
// cap first (no point charging rate tokens for a batch that can never
// fit), then the ops bucket, then the tuple bucket — with the ops token
// refunded if the tuple bucket rejects, so a rejected request costs the
// tenant nothing.
func (q *quotaState) admit(size, tuples, deletes int, now time.Time) error {
	if q == nil {
		return nil
	}
	if q.cfg.MaxRelationSize > 0 && size+tuples-deletes > q.cfg.MaxRelationSize {
		return fmt.Errorf("%w: relation holds %d tuples, batch adds %d, cap %d",
			ErrRelationFull, size, tuples-deletes, q.cfg.MaxRelationSize)
	}
	if q.ops != nil {
		if ok, wait := q.ops.take(1, now); !ok {
			return &RateLimitError{What: "ops", RetryAfter: wait}
		}
	}
	if q.tuples != nil && tuples > 0 {
		if ok, wait := q.tuples.take(float64(tuples), now); !ok {
			if q.ops != nil {
				q.ops.refund(1)
			}
			return &RateLimitError{What: "tuples", RetryAfter: wait}
		}
	}
	return nil
}
