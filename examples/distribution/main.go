// Distributional rarity: a reproduction of the paper's Example 7.
//
// Run with:
//
//	go run ./examples/distribution
//
// Brad Pitt and Angelina Jolie co-star in exactly one film and are also
// married — both explanations have count 1, so aggregate measures cannot
// separate them. The local distribution can: many other actors co-star
// with Brad Pitt at least as often, but nobody else is his spouse. This
// example computes both local distributions and the resulting position
// measures, and prints the SQL the paper evaluates for the same job
// (Section 5.3.2).
package main

import (
	"context"
	"fmt"
	"log"

	"rex"
)

func main() {
	kb := rex.SampleKB()
	explainer, err := rex.NewExplainer(kb, rex.Options{
		Measure: "local-dist",
		TopK:    10,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Explanation.SQL is rendered only for a query that asks for it.
	res, err := explainer.Query(context.Background(), rex.Request{
		Pair: rex.Pair{Start: "brad_pitt", End: "angelina_jolie"},
		SQL:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("explanations for (brad_pitt, angelina_jolie) by local-dist position:")
	fmt.Println("(position = how many other end entities beat this pair's count; 0 = rarest)")
	fmt.Println()
	for i, e := range res.Explanations {
		fmt.Printf("%d. position=%.0f count=%d  %s\n", i+1, -e.Score[0], e.NumInstances, e.Pattern)
	}

	// Show the SQL for the most and least rare explanations.
	if len(res.Explanations) > 1 {
		first := res.Explanations[0]
		last := res.Explanations[len(res.Explanations)-1]
		fmt.Printf("\nSQL computing the local distribution of the rarest explanation:\n%s\n", first.SQL)
		fmt.Printf("\n...and of the most common one:\n%s\n", last.SQL)
	}
}
