package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanLog keeps the traced run's host-time spans in memory; write saves
// them once the run has ended. A nil *spanLog records nothing, so untraced
// runs pay only the nil check. Spans are recorded from the benchmark's own
// code around the calls it makes into the simulator's layers. The log is
// safe for concurrent use (the HTTP clients share one).
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

// span is one timed call. IDs are 1-based indices into spanLog.spans;
// Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent int, tag string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Tag: tag,
		Start: int64(time.Since(l.origin)),
	})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = int64(time.Since(l.origin))
}

// tag sets a span's tag after the fact (e.g. the X-Cache answer).
func (l *spanLog) tag(id int, tag string) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].Tag = tag
}

// durations returns the durations of the closed spans match accepts.
func (l *spanLog) durations(match func(*span) bool) []int64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int64
	for i := range l.spans {
		if s := &l.spans[i]; s.End >= s.Start && match(s) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write saves the log as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"perfbench-spans/v1", l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
