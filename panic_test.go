package rex

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"rex/internal/fail"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/measure"
	"rex/internal/pattern"
)

// TestBatchExplainContainsPanics proves a panic inside one pair's query
// fails that pair alone: the other pairs of the batch still answer, and
// BatchExplain returns instead of hanging on a dead worker.
func TestBatchExplainContainsPanics(t *testing.T) {
	defer fail.Reset()
	ex := newTestExplainer(t, Options{Measure: "size"})
	pairs := []Pair{
		{"alice", "bob"},
		{"bob", "alice"},
		{"alice", "carol"},
	}
	// Panic on the second query only (ordering within the batch is the
	// submission order here because Concurrency=1 drains sequentially).
	n := 0
	fail.EnableFunc("explain.query", func() error {
		n++
		if n == 2 {
			panic("injected engine bug")
		}
		return nil
	})
	out := ex.BatchExplain(context.Background(), requests(pairs), BatchOptions{Concurrency: 1})
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panic") {
		t.Fatalf("poisoned pair error = %v, want a panic-containment error", out[1].Err)
	}
	if out[1].Result != nil {
		t.Fatal("poisoned pair returned a result alongside its error")
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Fatalf("healthy pair %d failed: %v", i, out[i].Err)
		}
		if out[i].Result == nil {
			t.Fatalf("healthy pair %d has no result", i)
		}
	}
}

func newTestExplainer(t *testing.T, opt Options) *Explainer {
	t.Helper()
	k, err := ReadKB(strings.NewReader(storeBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExplainer(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// helperPanic scores as its Limited measure does, except that an
// evaluation on a ranking's helper lane panics when the pair starts at
// poisoned. The caller's lane sleeps a millisecond per evaluation, so
// the helper claims some of every ranking's explanations.
type helperPanic struct {
	measure.Limited
	poisoned kb.NodeID
}

func (m helperPanic) ScoreWithLimit(ctx *measure.Context, ex *pattern.Explanation, threshold measure.Score) (measure.Score, bool) {
	buf := make([]byte, 64<<10)
	if bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("rank.(*lanes).help")) {
		if ctx.Start == m.poisoned {
			panic("injected engine bug on the helper lane")
		}
	} else {
		time.Sleep(time.Millisecond)
	}
	return m.Limited.ScoreWithLimit(ctx, ex, threshold)
}

func (m helperPanic) Score(ctx *measure.Context, ex *pattern.Explanation) measure.Score {
	s, _ := m.ScoreWithLimit(ctx, ex, nil)
	return s
}

// TestBatchExplainContainsHelperLanePanics proves a panic in a
// ranking's helper lane is handed to the query's own goroutine and
// contained there: it fails that pair of the batch alone, the other
// pairs answer, and the explainer answers the poisoned pair's
// neighbours afterwards.
func TestBatchExplainContainsHelperLanePanics(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(n)
	}
	g := kbgen.Sample()
	ex, err := NewExplainer(&KB{g: g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex.m = helperPanic{Limited: ex.m.(measure.Limited), poisoned: g.NodeByName("kate_winslet")}
	pairs := []Pair{
		{"brad_pitt", "angelina_jolie"},
		{"kate_winslet", "leonardo_dicaprio"},
		{"tom_cruise", "nicole_kidman"},
	}
	out := ex.BatchExplain(context.Background(), requests(pairs), BatchOptions{Concurrency: 1})
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "injected engine bug on the helper lane") || out[1].Result != nil {
		t.Fatalf("poisoned pair: result %v, error %v; want no result and the helper's panic", out[1].Result, out[1].Err)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil || out[i].Result == nil || len(out[i].Result.Explanations) == 0 {
			t.Fatalf("healthy pair %d: result %v, error %v", i, out[i].Result, out[i].Err)
		}
	}
	if _, err := ex.Explain(pairs[0].Start, pairs[0].End); err != nil {
		t.Fatalf("after the contained panic: %v", err)
	}
}
