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

// span is one timed call into a layer, recorded by the benchmark around the
// public call it makes; nothing inside the program is instrumented.
type span struct {
	Run    string `json:"run"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory; write dumps them as JSONL. Safe for
// concurrent use.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// begin opens a span under parent and returns its id and a function that
// closes it and returns its duration.
func (t *tracer) begin(parent int64, name string) (int64, func() time.Duration) {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.t0)
	return id, func() time.Duration {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: parent, Name: name,
			Start: int64(start), End: int64(end)})
		t.mu.Unlock()
		return end - start
	}
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(parent int64, name string, fn func(id int64)) time.Duration {
	id, end := t.begin(parent, name)
	fn(id)
	return end()
}

// median returns the median duration of the spans with the given name and
// how many there are; a layer called once per replay thus gets its
// per-replay time.
func (t *tracer) median(name string) (time.Duration, int) {
	t.mu.Lock()
	var secs []float64
	for _, s := range t.spans {
		if s.Name == name {
			secs = append(secs, s.dur().Seconds())
		}
	}
	t.mu.Unlock()
	return time.Duration(median(secs) * float64(time.Second)), len(secs)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as JSON lines in the order they closed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runID(workload string, seed int64) string {
	return fmt.Sprintf("%s-%d-%d", workload, seed, time.Now().UnixNano())
}
