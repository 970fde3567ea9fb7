package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// program's public functions. Spans of one request share a request id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: no parent
	Name    string `json:"name"`
	Request int64  `json:"request,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer's origin
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: processStart} }

// record adds a finished span and returns its id (0 for a nil tracer).
func (t *tracer) record(name string, parent int, request int64, start, end time.Time) int {
	id := t.begin(name, parent, request, start)
	t.end(id, end)
	return id
}

// begin opens a span, so that children can name it as their parent before
// it ends, and returns its id (0 for a nil tracer).
func (t *tracer) begin(name string, parent int, request int64, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request,
		StartNS: start.Sub(t.origin).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end.Sub(t.origin).Nanoseconds()
}

// around runs f inside a span and returns f's error.
func (t *tracer) around(name string, parent int, f func() error) error {
	id := t.begin(name, parent, 0, time.Now())
	err := f()
	t.end(id, time.Now())
	return err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerRow is one executed node of a profiled inference: its conv family,
// measured self-time and, for convolutions, the cost model's prediction.
type layerRow struct {
	Node      string  `json:"node"`
	Op        string  `json:"op"`
	Family    string  `json:"family"`
	Schedule  string  `json:"schedule,omitempty"`
	SelfMS    float64 `json:"self_ms"`
	GFLOPs    float64 `json:"gflop,omitempty"` // computed FLOPs (direct-equivalent for winograd)
	PredMS    float64 `json:"pred_ms,omitempty"`
	PredRatio float64 `json:"measured_over_pred,omitempty"`
}

// write stores the spans and the layer table as JSON.
func (t *tracer) write(path, workload string, seed uint64, layers []layerRow) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Layers   []layerRow `json:"layers"`
		Spans    []span     `json:"spans"`
	}{workload, seed, layers, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
