package enumerate

import (
	"context"
	"strings"
	"testing"

	"rex/internal/fail"
)

// TestExtensionWorkerPanicContained proves a panic in a parallel
// extension worker surfaces as the query's error instead of crashing
// the process (or deadlocking the other workers on wg.Wait). Only a
// deadline-budgeted request fans out (see neverExpires).
func TestExtensionWorkerPanicContained(t *testing.T) {
	defer fail.Reset()
	fail.EnableFunc("enumerate.extend", func() error {
		panic("injected worker bug")
	})
	tripped := false
	for seed := int64(0); seed < 10 && !tripped; seed++ {
		g, start, end := randomKB(seed)
		es, err := PathsContext(context.Background(), g, start, end,
			Config{PathAlg: PathPrioritized, Workers: 4, Budget: neverExpires()})
		if err == nil {
			continue // this graph never reached the parallel branch
		}
		tripped = true
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("seed %d: err = %v, want a panic-containment error", seed, err)
		}
		if es != nil {
			t.Fatalf("seed %d: partial results returned alongside panic error", seed)
		}
	}
	if !tripped {
		t.Fatal("no seed exercised the parallel extension branch; grow the test graphs")
	}
	// With the failpoint disarmed the same queries succeed again — the
	// containment path leaves no poisoned shared state behind.
	fail.Reset()
	for seed := int64(0); seed < 10; seed++ {
		g, start, end := randomKB(seed)
		if _, err := PathsContext(context.Background(), g, start, end,
			Config{PathAlg: PathPrioritized, Workers: 4, Budget: neverExpires()}); err != nil {
			t.Fatalf("seed %d after reset: %v", seed, err)
		}
	}
}
