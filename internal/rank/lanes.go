package rank

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/measure"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// inFlight counts the engine work in flight in the process: the
// facade's queries while they compute and its writes while they commit.
var inFlight atomic.Int64

// Occupy counts one unit of engine work in flight until the returned
// release runs. The facade brackets every query's computation and every
// store commit with it; a ranking takes a second lane only while the
// work in flight leaves a core spare.
func Occupy() (release func()) {
	inFlight.Add(1)
	return vacate
}

func vacate() { inFlight.Add(-1) }

// spareCore reports whether the process has a core beyond its work in
// flight. A ranking run below the facade, which counted nothing, counts
// as one unit itself.
func spareCore() bool {
	return max(inFlight.Load(), 1) < int64(runtime.GOMAXPROCS(0))
}

// lanes is one ranking's scoring state, shared by the caller's lane and,
// with two lanes, a helper goroutine's. Each lane claims the next
// explanation in index order, scores it unlocked and files the result
// in its slot; results are committed into kept in index order, so a
// result that finishes early waits in its slot for the ones before it.
type lanes struct {
	cctx context.Context
	mctx *measure.Context
	es   []*pattern.Explanation
	m    measure.Measure
	lim  measure.Limited // nil: every score is kept and nothing is pruned
	k    int
	// lag is how many results back a threshold is taken from:
	// explanation i is pruned against the k-th best of results
	// 0..i−lag. 1 with one lane; k with two.
	lag int

	mu    sync.Mutex
	moved sync.Cond // a result was committed, or the lanes halted
	next  int       // the next explanation to claim
	done  []bool
	slots []Ranked // slots[i]: explanation i's result; Ex nil when pruned
	// commits results, 0..commits−1, are in kept: with lim the top k
	// of them in rank order, without it all of them unsorted.
	commits int
	kept    []Ranked
	// bar[c%lag] is the k-th best of the first c results (nil while
	// fewer than k are kept). A claim of i reads c = i−lag+1, and
	// commits ≤ i since result i is not in, so c is one of the last lag
	// commit counts and its entry has not been overwritten.
	bar      []measure.Score
	evals    int64
	err      error // the context's end, as the first lane to see it saw it
	halted   bool  // a lane saw the context end or panicked
	panicked any   // what the helper lane panicked with
}

// score runs es through the measure in the given number of lanes (1 or
// 2) and returns the ranking: with lim the top k, each explanation
// pruned against the k-th best lag results back, without it every
// score, sorted and cut at k when k > 0. When a lane sees the context
// end, no lane claims another explanation, the result it cut short is
// discarded, and score returns the context's error with the ranking of
// the longest index-order prefix of es whose results are all in. The
// measure stage is recorded once, as the lanes' wall time, with calls =
// items = evaluations.
func score(cctx context.Context, mctx *measure.Context, es []*pattern.Explanation, m measure.Measure, lim measure.Limited, k, n int) ([]Ranked, error) {
	tr := obs.FromContext(cctx)
	t0 := tr.Begin()
	l := &lanes{cctx: cctx, mctx: mctx, es: es, m: m, lim: lim, k: k, lag: 1,
		done: make([]bool, len(es)), slots: make([]Ranked, len(es))}
	l.moved.L = &l.mu
	if lim != nil {
		if n > 1 {
			l.lag = k
		}
		l.bar = make([]measure.Score, l.lag)
		l.kept = make([]Ranked, 0, k+1)
	} else {
		l.kept = make([]Ranked, 0, len(es))
	}
	if n > 1 {
		joined := make(chan struct{})
		go l.help(joined)
		func() {
			// The helper is joined before the ranking returns, even when
			// the caller's lane panics; then it halts the helper first.
			finished := false
			defer func() {
				if !finished {
					l.mu.Lock()
					l.stop(nil)
					l.mu.Unlock()
				}
				<-joined
			}()
			l.lane(false)
			finished = true
		}()
		if l.panicked != nil {
			panic(l.panicked)
		}
	} else {
		l.lane(false)
	}
	if tr != nil {
		tr.AddStage(obs.StageMeasure, time.Since(t0), l.evals, l.evals)
	}
	if lim == nil {
		sortRanked(l.kept)
		if k > 0 && len(l.kept) > k {
			l.kept = l.kept[:k]
		}
	}
	return l.kept, l.err
}

// help is the helper lane: it recovers a panic and hands it to the
// caller, which re-raises it once the lanes have joined, so the
// facade's panic containment sees it on the query's own goroutine.
func (l *lanes) help(joined chan<- struct{}) {
	defer close(joined)
	defer func() {
		if v := recover(); v != nil {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.panicked = v
			l.stop(nil)
		}
	}()
	l.lane(true)
}

// lane claims, scores and files explanations until none is left, the
// lanes halt or, for the helper, the process has no core to spare.
func (l *lanes) lane(helper bool) {
	for {
		i, threshold, ok := l.claim(helper)
		if !ok {
			return
		}
		var s measure.Score
		kept := true
		if l.lim != nil {
			s, kept = l.lim.ScoreWithLimit(l.mctx, l.es[i], threshold)
		} else {
			s = l.m.Score(l.mctx, l.es[i])
		}
		l.file(i, s, kept)
	}
}

// claim takes the next explanation and its threshold, waiting until the
// results the threshold is taken from are committed. It checks the
// context last, so no evaluation starts once a lane has seen it end.
func (l *lanes) claim(helper bool) (int, measure.Score, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.halted || l.next == len(l.es) || helper && !spareCore() {
		return 0, nil, false
	}
	i := l.next
	l.next++
	c := i - l.lag + 1
	for l.lim != nil && l.commits < c && !l.halted {
		l.moved.Wait()
	}
	if err := l.cctx.Err(); err != nil {
		l.stop(err)
	}
	if l.halted {
		return 0, nil, false
	}
	var threshold measure.Score
	if l.lim != nil && c > 0 {
		threshold = l.bar[c%l.lag]
	}
	return i, threshold, true
}

// file records explanation i's evaluation and commits every result now
// in index order. An evaluation the context cut short is discarded:
// cancellation surfaces as ok=false or as an incomplete score, so the
// context decides first.
func (l *lanes) file(i int, s measure.Score, kept bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evals++
	if err := l.cctx.Err(); err != nil {
		l.stop(err)
		return
	}
	l.done[i] = true
	if kept {
		l.slots[i] = Ranked{Ex: l.es[i], Score: s}
	}
	for l.commits < len(l.es) && l.done[l.commits] {
		if r := l.slots[l.commits]; r.Ex != nil {
			l.kept = append(l.kept, r)
			if l.lim != nil {
				sortRanked(l.kept)
				if len(l.kept) > l.k {
					l.kept = l.kept[:l.k]
				}
			}
		}
		l.commits++
		if l.lim != nil {
			var kth measure.Score
			if len(l.kept) >= l.k {
				kth = l.kept[l.k-1].Score
			}
			l.bar[l.commits%l.lag] = kth
		}
	}
	l.moved.Broadcast()
}

// stop halts the lanes: no lane claims another explanation, and any
// that waits for a threshold wakes. err, when not nil, is the
// context's end. l.mu is held.
func (l *lanes) stop(err error) {
	if l.err == nil {
		l.err = err
	}
	l.halted = true
	l.moved.Broadcast()
}
