package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval attributed to a layer. Spans of one
// operation share Op (the root's ID); Parent is the span that caused it.
// A span whose duration comes from a number the program itself returned
// (a Result.Trace stage, an elapsed_ms field) is marked Reported: its
// duration is real, its start is only known to lie inside the parent.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Op       int     `json:"op"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	Reported bool    `json:"reported,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: every method is a no-op and never reads the clock, so the
// end-to-end run pays nothing for the traced run's existence.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// handle is an open span.
type handle struct {
	tr    *tracer
	id    int
	start time.Time
}

// begin opens a span under parent (nil parent = a root, one per
// operation).
func (t *tracer) begin(parent *handle, layer, name string) *handle {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	s := span{ID: id, Op: id, Layer: layer, Name: name, StartUS: us(now.Sub(t.t0))}
	if parent != nil {
		s.Parent = parent.id
		s.Op = t.spans[parent.id-1].Op
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return &handle{tr: t, id: id, start: now}
}

func (h *handle) end() time.Duration {
	if h == nil {
		return 0
	}
	d := time.Since(h.start)
	h.tr.mu.Lock()
	h.tr.spans[h.id-1].DurUS = us(d)
	h.tr.mu.Unlock()
	return d
}

// reported attaches a child whose duration the program reported.
func (t *tracer) reported(parent *handle, layer, name string, d time.Duration) *handle {
	if t == nil || parent == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	p := t.spans[parent.id-1]
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Op: p.Op, Layer: layer, Name: name,
		StartUS: p.StartUS, DurUS: us(d), Reported: true})
	t.mu.Unlock()
	return &handle{tr: t, id: id}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ledger is the per-layer summary of a set of spans.
type ledger struct {
	// SelfMS is each layer's self time: span durations minus the part
	// their children cover, clamped at zero per span.
	SelfMS map[string]float64
	// RootMS is the summed duration of the root spans (end-to-end time
	// of the traced operations); Roots counts them.
	RootMS float64
	Roots  int
}

// ledgerOf sums self time per layer over the spans whose root is named
// rootName ("" = all).
func (t *tracer) ledgerOf(rootName string) ledger {
	l := ledger{SelfMS: map[string]float64{}}
	if t == nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.DurUS
	}
	for _, s := range t.spans {
		if rootName != "" && t.spans[s.Op-1].Name != rootName {
			continue
		}
		self := s.DurUS - child[s.ID]
		if self < 0 {
			self = 0
		}
		l.SelfMS[s.Layer] += self / 1e3
		if s.Parent == 0 {
			l.RootMS += s.DurUS / 1e3
			l.Roots++
		}
	}
	return l
}

// unattributed is 1 − Σ layer self time ÷ end-to-end time: the share of
// the traced operations' time that no layer span covers (it is held by
// the benchmark's own root spans).
func (l ledger) unattributed() float64 {
	if l.RootMS == 0 {
		return 0
	}
	return l.SelfMS[layerBench] / l.RootMS
}

// perOp is a layer's self time per traced operation, in ms.
func (l ledger) perOp(layer string) float64 {
	if l.Roots == 0 {
		return 0
	}
	return l.SelfMS[layer] / float64(l.Roots)
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
