package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json this package must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesBenchmarkJSON holds spec.go and BENCHMARK.json
// together: same workloads, same metrics, same units, directions and
// bounds, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames, " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, spec.go %q", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, spec.go %+v", i, got, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if got := (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, spec.go %+v", i, got, perLayer[i])
		}
	}
}

// toy is the smoke test's counts: the structure of a run at a size that
// takes a fraction of a second.
var toy = counts{
	Preset:              "small",
	Rounds:              2,
	SetupReps:           1,
	HotRequests:         200,
	RouteRequests:       200,
	OpsPerDelta:         20,
	Restarts:            1,
	TierCheckpointEvery: 16,
	Deltas:              map[string]int{wlEngineCold: 40, wlServeHot: 40, wlIngestMixed: 96, wlTierRouted: 32},
}

// TestSmoke runs every workload untraced and traced at toy counts on
// the small preset and checks what the driver would read: the metric
// names of BENCHMARK.json and no others, no failed operation, layer self
// times that are not negative, and an unattributed share that was
// computed from spans.
func TestSmoke(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range spec.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range spec.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, names := range want {
		sort.Strings(names)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(options{workload: w, seed: 7, seconds: runSeconds, traced: traced, c: toy})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %s", w, traced, res.Correct, res.Failed, res.Attempted, res.FirstBad)
			}
			line, err := driverLine(res)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			var out struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(slices.Sorted(maps.Keys(out.Metrics)), " "); got != strings.Join(want[traced], " ") {
				t.Errorf("%s traced=%v reports %q, BENCHMARK.json declares %q", w, traced, got, strings.Join(want[traced], " "))
			}
			if !traced {
				for name, m := range out.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g; the bound is a share of it, so it must be positive", w, name, m.Value)
					}
				}
				continue
			}
			for name, m := range out.Metrics {
				if strings.HasSuffix(name, "self_ms") && m.Value < 0 {
					t.Errorf("%s: %s is negative: %g", w, name, m.Value)
				}
			}
			if res.Metrics["bench.unattributed_share"].Samples == 0 {
				t.Errorf("%s: bench.unattributed_share was not computed from any traced operation", w)
			}
			if _, err := os.Stat("out/trace-" + w + ".json"); err != nil {
				t.Errorf("%s: the traced run left no span file: %v", w, err)
			}
		}
	}
}
