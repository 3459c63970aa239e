package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark itself observed around a call into
// the program: a Submit, a Drain, a POST or a GET. Spans of one pod share
// its ID as their trace ID; Parent links a call to the round or replay
// that made it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory during a traced run; nothing is
// written until the run ends. A nil recorder records nothing, so untraced
// runs pay one nil check per call.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// add records one finished span and returns its ID (0 on a nil recorder).
func (r *spanRecorder) add(name string, parent, trace int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{
		ID: r.next, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return r.next
}

// reserve allocates a span ID for a parent span whose end is not known
// yet; finish records it under that ID.
func (r *spanRecorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *spanRecorder) finish(id int64, name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

func (r *spanRecorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeJSONL writes every span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
