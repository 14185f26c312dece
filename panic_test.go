package rex

import (
	"context"
	"strings"
	"testing"

	"rex/internal/fail"
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
