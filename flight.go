package rex

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"rex/internal/obs"
)

// flightGroup deduplicates concurrent identical queries: when several
// goroutines ask for the same (pair, budget) key at once — duplicate
// pairs in one BatchExplain, a hot pair under serving traffic — exactly
// one leader computes and every follower receives the leader's shared,
// read-only *Result. Unlike a cache this holds no completed results:
// an entry exists only while its computation is in flight, so memory is
// bounded by concurrency and the semantics compose with (but do not
// require) the result cache.
//
// Each Explainer owns one group, so a key fully identifies the
// computation: the options dimension is the group's identity, exactly
// like the cache.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	// deduped counts follower joins (queries answered by another
	// in-flight computation); computes counts leader executions.
	// Surfaced via CacheStats.
	deduped  atomic.Uint64
	computes atomic.Uint64
}

// flightCall is one in-flight computation. res and err are written by
// the leader before done is closed and read by followers only after.
type flightCall struct {
	done    chan struct{}
	waiters int // leader + followers currently sharing the call
	res     *Result
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do returns the result of fn for key, coalescing concurrent duplicate
// calls onto one execution. A follower whose own context expires stops
// waiting and returns its ctx error; the leader keeps computing for the
// remaining followers. When the leader itself fails with a context
// error (its deadline, not the followers'), followers retry rather than
// inherit a cancellation that was never theirs.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*Result, error)) (*Result, error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			c.waiters++
			g.mu.Unlock()
			g.deduped.Add(1)
			obs.FromContext(ctx).MarkDeduped()
			select {
			case <-c.done:
				if c.err != nil && (errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					continue // the leader's cancellation, not ours: retry
				}
				return c.res, c.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		c := &flightCall{done: make(chan struct{}), waiters: 1}
		g.calls[key] = c
		g.mu.Unlock()
		g.computes.Add(1)
		// Cleanup is deferred so a panicking computation (recovered by
		// net/http's serve loop, say) still unregisters the call and
		// releases its followers — otherwise the key would be poisoned
		// forever, every future query for it blocking on a done channel
		// nobody will close. The panic itself propagates to the leader;
		// followers receive errFlightAborted (not a context error, so
		// they do not retry a computation that just crashed).
		completed := false
		func() {
			defer func() {
				if !completed {
					c.res, c.err = nil, errFlightAborted
				}
				g.mu.Lock()
				delete(g.calls, key)
				g.mu.Unlock()
				close(c.done)
			}()
			c.res, c.err = fn()
			completed = true
		}()
		return c.res, c.err
	}
}

// errFlightAborted is delivered to followers whose leader's computation
// panicked: the call completed abnormally, so there is no result to
// share and no point re-running it.
var errFlightAborted = errors.New("rex: coalesced query computation aborted")

// totalWaiters reports the number of goroutines currently sharing any
// in-flight computation (leaders included); tests use it to know every
// expected caller has arrived before releasing a blocked leader.
func (g *flightGroup) totalWaiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		n += c.waiters
	}
	return n
}
