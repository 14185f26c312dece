package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rex"
)

// fullReport is benchmark/out/result.json: every run of every workload,
// stamped with what is needed to compare it with another one.
type fullReport struct {
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Clients    int          `json:"clients"`
	Label      string       `json:"label"`
	Seed       int64        `json:"seed"`
	Seconds    float64      `json:"seconds"`
	Repeat     int          `json:"repeat"`
	Counts     counts       `json:"counts"`
	Runs       []*runResult `json:"runs"`
	Summary    []summaryRow `json:"summary,omitempty"`
}

// summaryRow is one (metric, workload) pair over the repeats.
type summaryRow struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (Q3 − Q1) ÷ median
	Bound    float64   `json:"bound,omitempty"`
	// Verdict is "resolved" when the spread is within the bound,
	// "unresolved" when the runs disagree by more than the bound can
	// tell apart, "" for metrics without a bound.
	Verdict string `json:"verdict,omitempty"`
}

// fullRun runs every workload in a child process of its own (so
// peak_rss_mb is per workload), tracing off and then traced, repeat
// times over, prints every metric by name and writes out/result.json.
func fullRun(seed int64, seconds float64, repeat int) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	rep := &fullReport{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clientCount(), Label: fmt.Sprintf("%d-core sandbox", runtime.NumCPU()),
		Seed: seed, Seconds: seconds, Repeat: repeat, Counts: frozen.forRun(seconds, false),
	}
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  clients %d  seed %d  seconds %g  preset %s  rounds %d\n",
		rep.Commit, rep.GoVersion, rep.NProc, rep.GOMAXPROCS, rep.Clients, seed, seconds, rep.Counts.Preset, rep.Counts.Rounds)
	incorrect := 0
	for i := 0; i < repeat; i++ {
		for _, traced := range []int{0, 1} {
			for _, w := range workloadNames {
				file := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d.json", w, traced, i))
				cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced),
					"--result-out", file)
				cmd.Stderr = os.Stderr
				t0 := time.Now()
				runErr := cmd.Run()
				b, err := os.ReadFile(file)
				os.Remove(file) //nolint:errcheck // scratch
				if err != nil {
					return fmt.Errorf("%s (trace %d) produced no result: %v", w, traced, runErr)
				}
				var res runResult
				if err := json.Unmarshal(b, &res); err != nil {
					return err
				}
				rep.Runs = append(rep.Runs, &res)
				if !res.Correct {
					incorrect++
				}
				if repeat == 1 {
					printResult(os.Stdout, &res)
				} else {
					fmt.Printf("repeat %d  %-13s trace %d  %5.1fs  correct %v\n", i+1, w, traced, time.Since(t0).Seconds(), res.Correct)
				}
			}
		}
	}
	if repeat > 1 {
		rep.Summary = summarize(rep.Runs)
		printSummary(rep.Summary)
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed operations or answered wrongly", incorrect)
	}
	return nil
}

// summarize gives, per (metric, workload), the median, quartiles and
// spread over the repeats; an end-to-end pair whose spread exceeds its
// bound is unresolved, not passed.
func summarize(runs []*runResult) []summaryRow {
	var rows []summaryRow
	for _, list := range [][]metricSpec{endToEnd, reportOnly, perLayer} {
		for _, m := range list {
			for _, w := range workloadNames {
				var vals []float64
				for _, r := range runs {
					if v, ok := r.Metrics[m.Name]; ok && r.Workload == w {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vals)
				row := summaryRow{Metric: m.Name, Workload: w, Unit: m.Unit, Values: vals,
					Median: q2, Q1: q1, Q3: q3, Spread: spread(vals), Bound: m.Bound}
				if m.Bound > 0 {
					row.Verdict = "resolved"
					if row.Spread > m.Bound {
						row.Verdict = "unresolved"
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func printSummary(rows []summaryRow) {
	fmt.Printf("\n%-32s %-13s %12s %12s %12s %-6s %8s %8s  %s\n", "metric", "workload", "median", "q1", "q3", "unit", "spread", "÷bound", "")
	for _, r := range rows {
		ratio := ""
		if r.Bound > 0 {
			ratio = fmt.Sprintf("%.2f", r.Spread/r.Bound)
		}
		fmt.Printf("%-32s %-13s %12.6g %12.6g %12.6g %-6s %8.4f %8s  %s\n",
			r.Metric, r.Workload, r.Median, r.Q1, r.Q3, r.Unit, r.Spread, ratio, r.Verdict)
	}
}

// commit names the source the benchmark was built from: the VCS
// revision go build stamped into the binary, "unknown" when it was
// built outside a repository.
func commit() string { return rex.Build().Revision }
