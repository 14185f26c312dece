package rex

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// BatchOptions configures a BatchExplain fan-out.
type BatchOptions struct {
	// Concurrency is the number of worker goroutines explaining pairs;
	// 0 uses GOMAXPROCS. It is additionally capped at the pair count.
	Concurrency int
	// PerPairTimeout, when positive, bounds each pair's query with its
	// own deadline (derived from the batch context), so one pathological
	// pair cannot consume the whole batch budget. Exceeding it is an
	// error on that pair; prefer a Request's Budget for a graceful
	// best-so-far answer instead.
	PerPairTimeout time.Duration
	// Traced attaches a fresh per-pair trace context (see WithTrace) to
	// every pair, so each BatchResult.Result carries its own
	// Result.Trace. A trace on the batch context itself would aggregate
	// all pairs' stages into one incoherent trace; per-pair is the only
	// shape that makes sense for a fan-out.
	Traced bool
}

// BatchResult is the outcome for one pair of a batch: either a result or
// that pair's error, never both. Errors are isolated per pair — one
// failing pair does not affect the others.
type BatchResult struct {
	Pair   Pair
	Result *Result
	Err    error
	// Elapsed is the wall-clock time this pair's query took; the
	// contended benchmark derives its latency percentiles from it.
	Elapsed time.Duration
}

// BatchExplain runs many requests concurrently over a worker pool, each
// as Query runs it, returning one BatchResult per request in input
// order. Per-pair errors (unknown entities, per-pair timeouts) are
// recorded in the corresponding slot; cancelling ctx aborts in-flight
// queries and marks every unfinished pair with ctx.Err(). The
// explainer's result cache, when enabled, is consulted and populated as
// usual: a duplicate request whose first copy has finished is a hit, and
// duplicates running at the same time each compute an equal,
// independent *Result.
func (e *Explainer) BatchExplain(ctx context.Context, reqs []Request, opts BatchOptions) []BatchResult {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}

	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				pctx := ctx
				var cancel context.CancelFunc
				if opts.PerPairTimeout > 0 {
					pctx, cancel = context.WithTimeout(ctx, opts.PerPairTimeout)
				}
				if opts.Traced {
					pctx = WithTrace(pctx)
				}
				t0 := time.Now()
				res, err := e.explainContained(pctx, req)
				elapsed := time.Since(t0)
				if cancel != nil {
					cancel()
				}
				out[i] = BatchResult{Pair: req.Pair, Result: res, Err: err, Elapsed: elapsed}
			}
		}()
	}
	wg.Wait()
	return out
}

// explainContained runs one pair's query with panic containment: a
// panic in the engine — a bug tripped by this particular pair, not a
// user error — becomes that pair's BatchResult.Err instead of
// unwinding a worker goroutine and crashing the whole process. A
// panicking worker would otherwise also strand BatchExplain's wg.Wait
// forever, hanging every other pair of the batch.
func (e *Explainer) explainContained(ctx context.Context, req Request) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("rex: internal panic explaining (%s, %s): %v", req.Start, req.End, r)
		}
	}()
	return e.Query(ctx, req)
}
