// Command kbgen generates synthetic entertainment knowledge bases in the
// REX TSV or binary format and optionally samples connectedness-bucketed
// entity pairs for experiments:
//
//	kbgen -scale 1 -seed 42 -out kb.tsv
//	kbgen -preset million -out kb.bin          # 1.2M-edge KB, CSR binary snapshot
//	kbgen -scale 10 -pairs 10 -out kb.tsv -pairs-out pairs.tsv
//
// Generation is deterministic in -seed: the same flags always produce
// the byte-identical knowledge base (same content fingerprint). The
// -preset sizes (small, medium, million) are shared with the benchmark
// module under benchmark/ and the repository's testing.B benchmarks.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rex/internal/kbgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, generates and
// saves the knowledge base (and optional pair sample), and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 1, "knowledge base scale factor (75 ≈ paper scale)")
		preset   = fs.String("preset", "", "named size preset: small, medium, million (overrides -scale)")
		seed     = fs.Int64("seed", 42, "generation seed (same seed ⇒ identical KB)")
		out      = fs.String("out", "kb.tsv", "output path (.bin selects the fast CSR binary snapshot)")
		pairs    = fs.Int("pairs", 0, "sample this many pairs per connectedness bucket")
		pairsOut = fs.String("pairs-out", "", "pairs output path (default stdout)")
		sample   = fs.Bool("sample", false, "emit the curated sample KB instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt := kbgen.Options{Scale: *scale, Seed: *seed}
	if *preset != "" {
		var err error
		opt, err = kbgen.PresetOptions(*preset, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "kbgen:", err)
			return 2
		}
	}
	g := kbgen.Generate(opt)
	if *sample {
		g = kbgen.Sample()
	}
	save := g.SaveTSV
	if strings.HasSuffix(*out, ".bin") {
		save = g.SaveBinary // fast CSR binary snapshot, auto-detected on load
	}
	if err := save(*out); err != nil {
		fmt.Fprintln(stderr, "kbgen:", err)
		return 1
	}
	st := g.Stats()
	fmt.Fprintf(stdout, "wrote %s: %d entities, %d relationships, %d labels (max degree %d, avg %.1f, fingerprint %s)\n",
		*out, st.Nodes, st.Edges, st.Labels, st.MaxDegree, st.AvgDegree, g.Fingerprint())

	if *pairs > 0 {
		ps := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: *pairs, Seed: *seed + 1})
		w := bufio.NewWriter(stdout)
		if *pairsOut != "" {
			f, err := os.Create(*pairsOut)
			if err != nil {
				fmt.Fprintln(stderr, "kbgen:", err)
				return 1
			}
			defer f.Close()
			w = bufio.NewWriter(f)
		}
		for _, p := range ps {
			fmt.Fprintf(w, "%s\t%s\t%d\t%s\n",
				g.NodeName(p.Start), g.NodeName(p.End), p.Connectedness, p.Bucket)
		}
		if err := w.Flush(); err != nil {
			fmt.Fprintln(stderr, "kbgen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "sampled %d pairs\n", len(ps))
	}
	return 0
}
