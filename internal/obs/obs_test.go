package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	t0 := tr.Begin()
	if !t0.IsZero() {
		t.Fatal("nil trace Begin should return the zero time")
	}
	tr.End(StageEnumerate, t0, 5)
	tr.AddStage(StageRank, time.Second, 1, 1)
	tr.AddExpansions(3)
	tr.AddMerges(3)
	tr.AddJoins(2, 1)
	tr.AddBindings(4)
	tr.AddWalkSteps(4)
	tr.MarkCacheHit()
	tr.MarkPoolReused()
	tr.Truncated(StageEnumerate, TruncExpansions)
	if tr.StageNs(StageEnumerate) != 0 || tr.InnerNs() != 0 {
		t.Fatal("nil trace should read zero")
	}
	if rep := tr.Report(); rep != nil {
		t.Fatal("nil trace should render a nil report")
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("background context should carry no trace")
	}
	tr := NewTrace()
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost on the context")
	}
}

func TestTraceReport(t *testing.T) {
	tr := NewTrace()
	tr.AddStage(StageEnumerate, 2*time.Millisecond, 1, 10)
	tr.AddStage(StageMeasure, 3*time.Millisecond, 4, 4)
	tr.AddExpansions(42)
	tr.AddJoins(7, 90)
	tr.AddBindings(11)
	tr.AddWalkSteps(13)
	tr.MarkPoolReused()
	tr.Truncated(StageEnumerate, TruncExpansions)
	tr.Truncated(StageRank, TruncDeadline) // later attribution must not overwrite

	rep := tr.Report()
	if rep.TruncatedBy != "enumerate:expansions" {
		t.Fatalf("TruncatedBy = %q, want enumerate:expansions", rep.TruncatedBy)
	}
	if !rep.PoolReused || rep.CacheHit || rep.Deduped {
		t.Fatalf("flags wrong: %+v", rep)
	}
	if rep.Expansions != 42 || rep.Joins != 7 || rep.JoinsSkipped != 90 || rep.Bindings != 11 || rep.WalkSteps != 13 {
		t.Fatalf("counters wrong: %+v", rep)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("want 2 stages, got %d: %+v", len(rep.Stages), rep.Stages)
	}
	if rep.Stages[0].Stage != "enumerate" || rep.Stages[0].Items != 10 {
		t.Fatalf("enumerate stage wrong: %+v", rep.Stages[0])
	}
	if rep.Stages[1].Stage != "measure" || rep.Stages[1].Calls != 4 {
		t.Fatalf("measure stage wrong: %+v", rep.Stages[1])
	}
	if tr.InnerNs() != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("InnerNs = %d", tr.InnerNs())
	}
}

func TestTraceBeginEnd(t *testing.T) {
	tr := NewTrace()
	t0 := tr.Begin()
	if t0.IsZero() {
		t.Fatal("Begin on a live trace should read the clock")
	}
	time.Sleep(time.Millisecond)
	tr.End(StageMatch, t0, 7)
	if tr.StageNs(StageMatch) <= 0 {
		t.Fatal("End should record elapsed time")
	}
	// End with a zero start (from a formerly nil trace) is a no-op.
	tr.End(StageMatch, time.Time{}, 7)
	rep := tr.Report()
	if len(rep.Stages) != 1 || rep.Stages[0].Calls != 1 || rep.Stages[0].Items != 7 {
		t.Fatalf("stages wrong: %+v", rep.Stages)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rex_test_requests_total", "Requests.", "endpoint", "code")
	c.With("/explain", "200").Add(3)
	c.With("/batch", "400").Inc()
	g := r.Gauge("rex_test_inflight", "In-flight.")
	g.With().SetFunc(func() float64 { return 2 })
	h := r.Histogram("rex_test_latency_seconds", "Latency.", []float64{0.1, 1}, "endpoint")
	h.With("/explain").Observe(0.05)
	h.With("/explain").Observe(0.5)
	h.With("/explain").Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rex_test_requests_total counter",
		`rex_test_requests_total{endpoint="/explain",code="200"} 3`,
		`rex_test_requests_total{endpoint="/batch",code="400"} 1`,
		"# TYPE rex_test_inflight gauge",
		"rex_test_inflight 2",
		"# TYPE rex_test_latency_seconds histogram",
		`rex_test_latency_seconds_bucket{endpoint="/explain",le="0.1"} 1`,
		`rex_test_latency_seconds_bucket{endpoint="/explain",le="1"} 2`,
		`rex_test_latency_seconds_bucket{endpoint="/explain",le="+Inf"} 3`,
		`rex_test_latency_seconds_sum{endpoint="/explain"} 5.55`,
		`rex_test_latency_seconds_count{endpoint="/explain"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("rex_test_esc_total", "Escapes.", "v").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `{v="a\"b\\c\nd"}`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("rex_test_dup_total", "Dup.")
	b := r.Counter("rex_test_dup_total", "Dup.")
	if a != b {
		t.Fatal("re-registering a family should return the same one")
	}
	a.With().Inc()
	if b.With().Value() != 1 {
		t.Fatal("family identity lost")
	}
}

func TestSlowLog(t *testing.T) {
	var sink bytes.Buffer
	l := NewSlowLog(10*time.Millisecond, 3, &sink)
	if l.Note(5*time.Millisecond, SlowEntry{Start: "fast"}) {
		t.Fatal("below-threshold query recorded")
	}
	for i, name := range []string{"a", "b", "c", "d"} {
		if !l.Note(time.Duration(11+i)*time.Millisecond, SlowEntry{Start: name, Endpoint: "/explain"}) {
			t.Fatalf("entry %s not recorded", name)
		}
	}
	ents := l.Entries()
	if len(ents) != 3 {
		t.Fatalf("ring should retain 3, got %d", len(ents))
	}
	// Newest first; "a" evicted.
	if ents[0].Start != "d" || ents[1].Start != "c" || ents[2].Start != "b" {
		t.Fatalf("order wrong: %+v", ents)
	}
	if l.Total() != 4 {
		t.Fatalf("Total = %d, want 4", l.Total())
	}
	if ents[0].ElapsedMS < 14 || ents[0].Time == "" {
		t.Fatalf("entry not stamped: %+v", ents[0])
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("sink should hold 4 JSON lines, got %d", len(lines))
	}
	var e SlowEntry
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil || e.Start != "a" {
		t.Fatalf("sink line broken: %v %+v", err, e)
	}

	var nilLog *SlowLog
	if nilLog.Note(time.Hour, SlowEntry{}) || nilLog.Entries() != nil || nilLog.Total() != 0 {
		t.Fatal("nil slow log should be inert")
	}
}

func TestBuildInfo(t *testing.T) {
	b := Build()
	if b.GoVersion == "" || b.Revision == "" {
		t.Fatalf("build info incomplete: %+v", b)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}
