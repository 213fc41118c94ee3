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
// slots (and engine passes) the other tenants need. Server-wide
// defaults come from Options (the -quota-* flags); a create request may
// override them per session — stricter or looser — with -1 meaning
// explicitly unlimited.
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

// resolveQuota layers a per-session wire override over the server
// defaults: zero fields inherit, negative fields mean explicitly
// unlimited. A session's quota is a wal.Quota whose Set marks such an
// override: it is session state (recorded in snapshots, restored on
// recovery, shipped to replicas), whereas inherited defaults re-resolve
// against whatever defaults the restoring server was booted with.
func resolveQuota(def wal.Quota, wq *WireQuota) wal.Quota {
	q := def
	if wq == nil {
		return q
	}
	q.Set = true
	override := func(dst *float64, v float64) {
		if v < 0 {
			*dst = 0
		} else if v > 0 {
			*dst = v
		}
	}
	override(&q.OpsPerSec, wq.OpsPerSec)
	override(&q.TuplesPerSec, wq.TuplesPerSec)
	if wq.MaxRelationSize < 0 {
		q.MaxRelationSize = 0
	} else if wq.MaxRelationSize > 0 {
		q.MaxRelationSize = wq.MaxRelationSize
	}
	if wq.MaxSubscribers < 0 {
		q.MaxSubscribers = 0
	} else if wq.MaxSubscribers > 0 {
		q.MaxSubscribers = wq.MaxSubscribers
	}
	return q
}

// wireQuota renders the effective quota for session listings; nil when
// the session is entirely unlimited so unquota'd services stay
// byte-stable. Explicitness alone does not render: an explicitly
// all-unlimited quota looks like no quota on the wire, as before.
func wireQuota(q wal.Quota) *WireQuota {
	if q.OpsPerSec == 0 && q.TuplesPerSec == 0 && q.MaxRelationSize == 0 && q.MaxSubscribers == 0 {
		return nil
	}
	return &WireQuota{
		OpsPerSec:       q.OpsPerSec,
		TuplesPerSec:    q.TuplesPerSec,
		MaxRelationSize: q.MaxRelationSize,
		MaxSubscribers:  q.MaxSubscribers,
	}
}

// walQuota is a session's quota as its snapshot header records it: an
// explicit override verbatim (all-zero means explicitly unlimited),
// inherited defaults as an empty mark, so a restoring server re-resolves
// them against its own boot-time defaults.
func walQuota(q wal.Quota) wal.Quota {
	if !q.Set {
		return wal.Quota{}
	}
	return q
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
// until the bucket will hold n (requests larger than the burst are
// charged over multiple refill windows rather than rejected forever).
func (b *tokenBucket) take(n float64, now time.Time) (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	// A request beyond the burst would never fit a full bucket; letting
	// the deficit go negative charges it across future windows instead.
	if n > b.burst {
		b.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - b.tokens) / b.rate * float64(time.Second))
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
