package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer: its name (the layer's function, as
// in "exec.GP" or "pipeline.Plan"), its host start and end relative to the
// tracer's origin, the span that caused it, and the pass it belongs to.
// Spans of one pass share the pass number, the way spans of one request
// share a request identifier.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Pass   int           `json:"pass"`   // -1 for set-up
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Allocs is the number of heap allocations made inside the span.
	Allocs uint64 `json:"allocs"`
}

// tracer records spans in memory. A nil *tracer is the untraced mode:
// every method is a no-op, so the workloads call it unconditionally and the
// untraced run pays one nil check per call.
type tracer struct {
	origin time.Time
	pass   int
	spans  []span
	stack  []int
	ms     runtime.MemStats
}

func newTracer() *tracer { return &tracer{origin: time.Now(), pass: -1} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	runtime.ReadMemStats(&t.ms)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Name: name,
		Start: time.Since(t.origin), Allocs: t.ms.Mallocs})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = time.Since(t.origin)
	runtime.ReadMemStats(&t.ms)
	s.Allocs = t.ms.Mallocs - s.Allocs
}

// selfTimes sums, per span name, the durations of the traced passes' spans
// minus the part of each covered by its child spans: the host time each
// layer owns.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.Pass >= 0 {
			self[s.Name] += s.End - s.Start - child[i]
		}
	}
	return self
}

// write stores the spans as a Chrome trace-event file (load it in Perfetto
// or chrome://tracing) under dir.
func (t *tracer) write(dir, file string) (string, error) {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args span    `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: s}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
