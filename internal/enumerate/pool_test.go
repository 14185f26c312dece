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
	for _, bud := range []Budget{{}, neverTruncates} {
		st := newEnumState()
		cfg := Config{MaxPatternSize: 7, Budget: bud}
		if _, _, err := st.paths(context.Background(), sample, sample.NodeByName("brad_pitt"), sample.NodeByName("angelina_jolie"), cfg); err != nil {
			t.Fatal(err)
		}
		if st.oversized() {
			t.Errorf("a sample-KB query under %+v left its state oversized", bud)
		}
	}
}
