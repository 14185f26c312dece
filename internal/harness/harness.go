// Package harness builds the workloads, timings and tables behind every
// figure and table of the paper's evaluation (Section 5). Both the
// rexpaper command and the repository's testing.B benchmarks call into
// this package so the two always agree on what an experiment means.
package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// EnvOptions configures an experiment environment.
type EnvOptions struct {
	// Scale is the synthetic KB scale factor (see kbgen.Options). The
	// default 1.0 builds a graph whose local density is comparable to
	// the paper's DBpedia extraction while keeping single-core runs
	// tractable.
	Scale float64
	// Seed drives KB generation and pair sampling.
	Seed int64
	// PerBucket is the number of entity pairs per connectedness group
	// (the paper uses 10).
	PerBucket int
	// MaxPatternSize is the pattern node limit (the paper uses 5).
	MaxPatternSize int
	// GlobalSamples is the number of start entities used to estimate the
	// global distribution (the paper uses 100).
	GlobalSamples int
}

func (o EnvOptions) normalized() EnvOptions {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PerBucket <= 0 {
		o.PerBucket = 10
	}
	if o.MaxPatternSize <= 0 {
		o.MaxPatternSize = 5
	}
	if o.GlobalSamples <= 0 {
		o.GlobalSamples = 100
	}
	return o
}

// Env is a ready-to-run experiment environment: the knowledge base and
// the bucketed entity-pair workload.
type Env struct {
	Opt   EnvOptions
	G     *kb.Graph
	Pairs []kbgen.Pair
}

// NewEnv generates the synthetic knowledge base and samples the
// connectedness-bucketed pair workload.
func NewEnv(opt EnvOptions) *Env {
	opt = opt.normalized()
	g := kbgen.Generate(kbgen.Options{Scale: opt.Scale, Seed: opt.Seed})
	pairs := kbgen.SamplePairs(g, kbgen.PairOptions{
		PerBucket: opt.PerBucket,
		MaxLen:    opt.MaxPatternSize - 1,
		Seed:      opt.Seed + 1,
	})
	return &Env{Opt: opt, G: g, Pairs: pairs}
}

// PairsIn returns the workload pairs of one connectedness bucket.
func (e *Env) PairsIn(b kb.ConnBucket) []kbgen.Pair {
	var out []kbgen.Pair
	for _, p := range e.Pairs {
		if p.Bucket == b {
			out = append(out, p)
		}
	}
	return out
}

// Buckets lists the experiment groups in presentation order.
func Buckets() []kb.ConnBucket {
	return []kb.ConnBucket{kb.ConnLow, kb.ConnMedium, kb.ConnHigh}
}

// Time runs f once and reports the wall-clock seconds. Fast bodies are
// repeated until the total exceeds a few milliseconds so the measurement
// is stable on coarse clocks, and the mean per run is reported.
func Time(f func()) float64 {
	start := time.Now()
	f()
	elapsed := time.Since(start)
	if elapsed >= 5*time.Millisecond {
		return elapsed.Seconds()
	}
	// Repeat to stabilise sub-millisecond measurements.
	runs := 1
	total := elapsed
	for total < 20*time.Millisecond && runs < 1000 {
		s := time.Now()
		f()
		total += time.Since(s)
		runs++
	}
	return total.Seconds() / float64(runs)
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Print renders the table with aligned columns.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Seconds formats a duration in seconds with adaptive precision.
func Seconds(s float64) string {
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
