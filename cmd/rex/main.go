// Command rex explains the relationship between a pair of entities in a
// knowledge base:
//
//	rex -kb entertainment.tsv -start brad_pitt -end angelina_jolie
//	rex -sample -start tom_cruise -end will_smith -measure local-dist -k 5
//
// With no -kb flag the built-in sample entertainment knowledge base is
// used (equivalent to -sample). A -timeout bounds the query; exceeding it
// exits with an error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rex"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, executes one
// explanation query, renders it to stdout, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kbPath   = fs.String("kb", "", "knowledge base TSV file (default: built-in sample)")
		sample   = fs.Bool("sample", false, "use the built-in sample entertainment KB")
		start    = fs.String("start", "", "start entity name (required)")
		end      = fs.String("end", "", "end entity name (required)")
		measureN = fs.String("measure", "size+local-dist", "interestingness measure: "+strings.Join(rex.MeasureNames(), ", "))
		topK     = fs.Int("k", 10, "number of explanations to return")
		maxSize  = fs.Int("size", 5, "pattern size limit (nodes)")
		maxInst  = fs.Int("instances", 3, "max instances to print per explanation (0 = all)")
		showSQL  = fs.Bool("sql", false, "render the distributional SQL for each explanation (printed, and included in -json output, which leaves it out otherwise)")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON")
		decorate = fs.Bool("decorate", false, "attach non-essential context facts to each explanation")
		timeout  = fs.Duration("timeout", 0, "query deadline (0 = none)")
		traceOn  = fs.Bool("trace", false, "print the per-stage query trace (included in -json output)")
		version  = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "rex", rex.Build())
		return 0
	}

	if *start == "" || *end == "" {
		fmt.Fprintln(stderr, "rex: -start and -end are required")
		fs.Usage()
		return 2
	}

	var (
		kb  *rex.KB
		err error
	)
	switch {
	case *kbPath != "":
		kb, err = rex.LoadKB(*kbPath)
		if err != nil {
			fmt.Fprintln(stderr, "rex:", err)
			return 1
		}
	default:
		_ = sample // the sample KB is also the default
		kb = rex.SampleKB()
	}

	ex, err := rex.NewExplainer(kb, rex.Options{
		MaxPatternSize:             *maxSize,
		Measure:                    *measureN,
		TopK:                       *topK,
		MaxInstancesPerExplanation: *maxInst,
		Decorate:                   *decorate,
	})
	if err != nil {
		fmt.Fprintln(stderr, "rex:", err)
		return 1
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *traceOn {
		ctx = rex.WithTrace(ctx)
	}
	bud := ex.DefaultBudget()
	bud.SQL = *showSQL
	res, err := ex.ExplainBudgeted(ctx, *start, *end, bud)
	if err != nil {
		fmt.Fprintln(stderr, "rex:", err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "rex:", err)
			return 1
		}
		return 0
	}

	st := kb.Stats()
	fmt.Fprintf(stdout, "knowledge base: %d entities, %d relationships, %d labels\n",
		st.Nodes, st.Edges, st.Labels)
	fmt.Fprintf(stdout, "top %d explanations for (%s, %s) by %s:\n\n",
		len(res.Explanations), res.Start, res.End, res.Measure)
	for i, e := range res.Explanations {
		kind := "pattern"
		if e.IsPath {
			kind = "path"
		}
		fmt.Fprintf(stdout, "%2d. [%s, size %d, %d instance(s), monocount %d] score=%v\n",
			i+1, kind, e.Size, e.NumInstances, e.Monocount, e.Score)
		fmt.Fprintf(stdout, "    %s\n", e.Pattern)
		for _, in := range e.Instances {
			fmt.Fprintf(stdout, "      instance: %s\n", strings.Join(in.Bindings, ", "))
		}
		for _, d := range e.Decorations {
			fmt.Fprintf(stdout, "      also: %s\n", d)
		}
		if *showSQL {
			fmt.Fprintln(stdout, "    distributional SQL:")
			for _, line := range strings.Split(e.SQL, "\n") {
				fmt.Fprintf(stdout, "      %s\n", line)
			}
		}
		fmt.Fprintln(stdout)
	}
	if len(res.Explanations) == 0 {
		fmt.Fprintln(stdout, "no explanations found within the pattern size limit")
	}
	if *traceOn && res.Trace != nil {
		printTrace(stdout, res.Trace)
	}
	return 0
}

// printTrace renders the per-stage query trace as a table.
func printTrace(w io.Writer, tr *rex.QueryTrace) {
	fmt.Fprintf(w, "query trace: %.3fms total\n", tr.TotalMS)
	fmt.Fprintf(w, "  %-12s %12s %8s %10s\n", "stage", "ms", "calls", "items")
	for _, st := range tr.Stages {
		fmt.Fprintf(w, "  %-12s %12.3f %8d %10d\n", st.Stage, st.DurationMS, st.Calls, st.Items)
	}
	fmt.Fprintf(w, "  expansions=%d merges=%d joins=%d joins_skipped=%d bindings=%d walk_steps=%d\n",
		tr.Expansions, tr.Merges, tr.Joins, tr.JoinsSkipped, tr.Bindings, tr.WalkSteps)
	if tr.TruncatedBy != "" {
		fmt.Fprintf(w, "  truncated by: %s\n", tr.TruncatedBy)
	}
}
