package enumerate

import (
	"context"
	"testing"

	"rex/internal/kbgen"
)

// TestOrdinaryQueryKeepsPooledState checks that the pool's size bound
// does not cost an ordinary query its pooled state, plain or budgeted.
func TestOrdinaryQueryKeepsPooledState(t *testing.T) {
	sample := kbgen.Sample()
	bg := context.Background()
	for route, ctx := range map[string]context.Context{"plain": bg, "budgeted": neverExpires(t, bg)} {
		st := newEnumState()
		cfg := Config{MaxPatternSize: 7}
		if _, _, err := st.paths(ctx, sample, sample.NodeByName("brad_pitt"), sample.NodeByName("angelina_jolie"), cfg); err != nil {
			t.Fatal(err)
		}
		if st.oversized() {
			t.Errorf("a %s sample-KB query left its state oversized", route)
		}
	}
}
