// Command benchmark is the benchmark of this repository: four workloads
// (engine_cold, serve_hot, ingest_mixed, tier_routed), end-to-end
// metrics measured with tracing off, and a per-layer ledger from a
// separate traced run whose spans this program records around its calls
// into each layer's public functions. See README.md.
//
//	bash benchmark/run.sh                       every workload, untraced then traced; table + out/result.json
//	bash benchmark/run.sh -repeat 3             the whole set three times; spread ÷ bound per (metric, workload)
//	bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 16 --trace 0
//	                                            one run in this process; last line is the driver's JSON object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricValue is one reported number. The driver's line carries value
// and unit; the sample count and the per-round values the number was
// settled from are for people and result.json.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Rounds  []float64 `json:"rounds,omitempty"`
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FirstBad  string                 `json:"first_bad,omitempty"`
	Counts    counts                 `json:"counts"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in-process and print the driver's JSON line ("+strings.Join(workloadNames, ", ")+")")
	seed := fs.Int64("seed", 42, "drives request order, Zipf draws and delta content")
	seconds := fs.Float64("seconds", runSeconds, "measuring time; sets the number of rounds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from benchmark-side spans, a quarter of the rounds")
	repeat := fs.Int("repeat", 1, "full run only: repeat the whole set N times and report spread ÷ bound")
	update := fs.Bool("update-expected", false, "rewrite benchmark/expected/<workload>.json from this run instead of checking against it")
	resultOut := fs.String("result-out", "", "also write the run's result as JSON to this file (used by the full run)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *workload == "" {
		return fullRun(*seed, *seconds, *repeat)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	res, err := runWorkload(options{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
		c: frozen, updateExpected: *update,
	})
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if *resultOut != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*resultOut, b, 0o644); err != nil {
			return err
		}
	}
	line, err := driverLine(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly: %s", res.Workload, res.Failed, res.Attempted, res.FirstBad)
	}
	return nil
}

// driverLine is the last line of standard output: one JSON object with
// exactly correct, attempted, failed and metrics, the metrics being
// every end-to-end metric (tracing off) or every per-layer metric
// (traced run).
func driverLine(res *runResult) ([]byte, error) {
	list := endToEnd
	if res.Traced {
		list = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not report %s", res.Workload, m.Name)
		}
		metrics[m.Name] = mv{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

// printResult lists every metric of one run by name with unit and
// sample count.
func printResult(w *os.File, res *runResult) {
	mode := "tracing off"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  attempted %d  failed %d  correct %v\n",
		res.Workload, res.Seed, mode, res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", n, v.Value, v.Unit, v.Samples)
	}
}

// benchDir locates the benchmark's own directory: the program runs from
// the repository root (run.sh), or from benchmark/ itself (go test).
func benchDir() string {
	for _, d := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(d, "expected")); err == nil {
			if _, err := os.Stat(filepath.Join(d, "spec.go")); err == nil {
				return d
			}
		}
	}
	return "benchmark"
}

// clientCount is the closed loop's width: min(2, nproc). Load generator
// and servers share the machine, so more clients than cores would
// measure the Go scheduler.
func clientCount() int { return min(2, runtime.NumCPU()) }
