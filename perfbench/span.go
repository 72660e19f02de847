package main

import (
	"sync"
	"time"
)

// span is one timed call into the program: its layer name, its interval in
// nanoseconds since the tracer started, the span that caused it (-1 for a
// root) and the serving op it belongs to (-1 outside the serving loop).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
}

// tracer records spans in memory around every public call the benchmark
// makes. A nil *tracer records nothing, so untraced runs pay one nil check
// per call. Study cells run on worker goroutines, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfSeconds sums, per span name, each span's duration minus the part its
// children cover: the time spent in that layer itself. Children of one
// parent may overlap when they run on parallel workers, so the covered part
// is clamped to the parent's duration.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		d := s.end - s.start
		if covered[i] > d {
			covered[i] = d
		}
		self[s.name] += float64(d-covered[i]) / 1e9
	}
	return self
}
