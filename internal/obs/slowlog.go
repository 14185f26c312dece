package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowEntry is one slow-query record: the forensics needed to answer
// "what was this query and where did its time go" after the fact.
type SlowEntry struct {
	Time       string  `json:"time"`
	RequestID  string  `json:"request_id,omitempty"`
	Endpoint   string  `json:"endpoint"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	BudgetMS   int64   `json:"budget_ms,omitempty"`
	Generation uint64  `json:"generation"`
	Truncated  bool    `json:"truncated,omitempty"`
	Error      string  `json:"error,omitempty"`
	Trace      *Report `json:"trace,omitempty"`
}

// SlowLog keeps the most recent slow queries in a ring buffer and
// optionally appends each as a JSON line to a writer. A nil *SlowLog
// is valid and records nothing.
type SlowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	n     int
	total uint64
	w     io.Writer
}

// NewSlowLog returns a log recording queries at or above threshold,
// keeping the last size entries; w (optional) receives each entry as a
// JSON line. A non-positive threshold records every query — useful in
// tests, pathological in production.
func NewSlowLog(threshold time.Duration, size int, w io.Writer) *SlowLog {
	if size <= 0 {
		size = 128
	}
	return &SlowLog{threshold: threshold, ring: make([]SlowEntry, size), w: w}
}

// Threshold returns the configured slow threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Note records the entry if elapsed meets the threshold, stamping its
// Time and ElapsedMS. It reports whether the entry was recorded.
func (l *SlowLog) Note(elapsed time.Duration, e SlowEntry) bool {
	if l == nil || elapsed < l.threshold {
		return false
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	e.ElapsedMS = float64(elapsed) / 1e6
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.total++
	if l.w != nil {
		// Marshal under the lock so concurrent entries cannot interleave
		// bytes within a line; SlowEntry always marshals.
		if b, err := json.Marshal(e); err == nil {
			l.w.Write(append(b, '\n'))
		}
	}
	return true
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Total returns how many slow queries have been recorded overall,
// including entries the ring has since evicted.
func (l *SlowLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
