// Command rexpaper regenerates every table and figure of the REX paper's
// evaluation (Section 5) on the synthetic workload:
//
//	rexpaper -exp all            # everything (slow: includes NaiveEnum)
//	rexpaper -exp fig7 -quick    # Figure 7 without the NaiveEnum baseline
//	rexpaper -exp table1         # the user-study Table 1 (simulated raters)
//
// Experiments: fig7, fig8, fig9, fig10, fig11, table1, pathshare,
// learned, ablation, or all; -exp takes a comma-separated list. The
// experiments themselves live in internal/harness; this command only
// builds the workload and prints their tables. Performance is measured
// elsewhere: `bash benchmark/run.sh` for the end-to-end workloads and
// `go test -bench` for the hot-path micro-benchmarks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rex"
	"rex/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, runs the
// selected experiments, prints their tables to stdout, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rexpaper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, table1, pathshare, learned, ablation, all")
		scale     = fs.Float64("scale", 1, "synthetic KB scale factor")
		seed      = fs.Int64("seed", 42, "workload seed")
		perBucket = fs.Int("pairs", 10, "entity pairs per connectedness bucket")
		quick     = fs.Bool("quick", false, "reduce work: skip NaiveEnum, fewer global samples, shorter k sweep")
		samples   = fs.Int("global-samples", 100, "sampled starts estimating the global distribution")
		raters    = fs.Int("raters", 10, "simulated raters for table1/pathshare")
		version   = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "rexpaper", rex.Build())
		return 0
	}

	gs := *samples
	if *quick && gs > 25 {
		gs = 25
	}

	wants := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wants[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return wants["all"] || wants[name] }

	needsEnv := want("fig7") || want("fig8") || want("fig9") || want("fig10") ||
		want("fig11") || want("ablation")
	var env *harness.Env
	if needsEnv {
		start := time.Now()
		env = harness.NewEnv(harness.EnvOptions{
			Scale: *scale, Seed: *seed, PerBucket: *perBucket, GlobalSamples: gs,
		})
		st := env.G.Stats()
		fmt.Fprintf(stdout, "workload: %d entities, %d relationships, %d labels; %d pairs (built in %s)\n",
			st.Nodes, st.Edges, st.Labels, len(env.Pairs), time.Since(start).Round(time.Millisecond))
		for _, b := range harness.Buckets() {
			fmt.Fprintf(stdout, "  %s: %d pairs\n", b, len(env.PairsIn(b)))
		}
	}

	if want("fig7") {
		env.Fig7(*quick).Print(stdout)
	}
	if want("fig8") {
		env.Fig8().Print(stdout)
	}
	if want("fig9") {
		env.Fig9().Print(stdout)
	}
	if want("fig10") {
		ks := []int{1, 5, 10, 20, 50, 100, 200}
		if *quick {
			ks = []int{1, 10, 100}
		}
		env.Fig10(ks).Print(stdout)
	}
	if want("fig11") {
		env.Fig11().Print(stdout)
	}
	if want("ablation") {
		env.Ablation().Print(stdout)
	}
	studyOpt := harness.StudyOptions{
		Scale: *scale, Seed: *seed, NumRaters: *raters, GlobalSamples: gs,
	}
	if want("table1") {
		harness.Table1(studyOpt).Print(stdout)
	}
	if want("pathshare") {
		harness.PathShare(studyOpt).Print(stdout)
	}
	if want("learned") {
		harness.Learned(studyOpt).Print(stdout)
	}
	return 0
}
