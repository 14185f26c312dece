// Batch offline evaluation over a synthetic web-scale-shaped knowledge
// base.
//
// Run with:
//
//	go run ./examples/batchexplain
//
// Search engines precompute explanations for the related-entity pairs
// they serve. This example generates a synthetic entertainment knowledge
// base (the DESIGN.md substitution for the paper's DBpedia extraction),
// samples pairs bucketed by connectedness exactly like the paper's
// workload, and batch-explains them under two measures using the
// concurrent BatchExplain fan-out, reporting how often the rankings
// agree on the top explanation — a cheap proxy for the
// measure-effectiveness comparison of Table 1.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rex"
	"rex/internal/kbgen"
)

func main() {
	kb := rex.GenerateKB(rex.GenOptions{Scale: 0.5, Seed: 7})
	st := kb.Stats()
	fmt.Printf("synthetic KB: %d entities, %d relationships, %d labels\n\n",
		st.Nodes, st.Edges, st.Labels)

	fast, err := rex.NewExplainer(kb, rex.Options{Measure: "size+monocount", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	rich, err := rex.NewExplainer(kb, rex.Options{Measure: "size+local-dist", TopK: 3})
	if err != nil {
		log.Fatal(err)
	}

	// The internal pair sampler is used directly here because this
	// example *is* the experiment pipeline; applications would bring
	// their own pair source. Both batches fan out over all cores, with a
	// per-pair timeout isolating any pathological pair.
	pairs := samplePairs(kb)
	ctx := context.Background()
	opts := rex.BatchOptions{PerPairTimeout: 30 * time.Second}
	t0 := time.Now()
	fastOut := fast.BatchExplain(ctx, pairs, opts)
	richOut := rich.BatchExplain(ctx, pairs, opts)
	elapsed := time.Since(t0)

	agree := 0
	for i, p := range pairs {
		if fastOut[i].Err != nil {
			log.Fatal(fastOut[i].Err)
		}
		if richOut[i].Err != nil {
			log.Fatal(richOut[i].Err)
		}
		r1, r2 := fastOut[i].Result, richOut[i].Result
		same := len(r1.Explanations) > 0 && len(r2.Explanations) > 0 &&
			r1.Explanations[0].Pattern == r2.Explanations[0].Pattern
		if same {
			agree++
		}
		top := "(none)"
		if len(r2.Explanations) > 0 {
			top = r2.Explanations[0].Pattern
		}
		marker := " "
		if !same {
			marker = "*"
		}
		fmt.Printf("%s %-28s %-28s top: %s\n", marker, p.Start, p.End, top)
	}
	fmt.Printf("\ntop-1 agreement between size+monocount and size+local-dist: %d/%d (batched in %v)\n",
		agree, len(pairs), elapsed.Round(time.Millisecond))
	fmt.Println("(* marks pairs where the distributional tie-break changed the winner)")
}

// samplePairs draws a small bucketed workload and resolves names.
func samplePairs(k *rex.KB) []rex.Request {
	g := kbgen.Generate(kbgen.Options{Scale: 0.5, Seed: 7}) // same seed: same graph
	pairs := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 4, Seed: 8})
	out := make([]rex.Request, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, rex.Request{Pair: rex.Pair{Start: g.NodeName(p.Start), End: g.NodeName(p.End)}})
	}
	return out
}
