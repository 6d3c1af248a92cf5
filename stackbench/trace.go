package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans nest through Parent (0 = top level); the modules themselves are
// not instrumented, so a span's self time is the time the benchmark saw
// the layer take outside the calls it traced below it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`    // the call, e.g. "explore.Explore"
	Layer  string `json:"layer"` // the module it belongs to
	Name   string `json:"name"`  // what it ran on, e.g. "philosophers{3,1}/w1"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id. The clock is read after the
// bookkeeping, so the span starts as close to the call as it can.
func (t *tracer) begin(parent int64, layer, op, name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Layer: layer, Name: name})
	t.spans[len(t.spans)-1].Start = time.Since(t.t0).Nanoseconds()
	return int64(len(t.spans))
}

// end closes the span begin returned and reports its duration in ns
// (0 when untraced).
func (t *tracer) end(id int64) int64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// add records a span whose bounds were observed rather than bracketed,
// such as a campaign cell timed between two Progress callbacks.
func (t *tracer) add(parent int64, layer, op, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Layer: layer, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations collects the durations, in ns, of the spans with op op
// recorded after span index from.
func durations(spans []span, from int, op string) []float64 {
	var out []float64
	for _, s := range spans[from:] {
		if s.Op == op {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the durations
// of its direct children.
func selfTimes(spans []span) map[string]int64 {
	childNs := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.dur()
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Layer] += s.dur() - childNs[s.ID]
	}
	return self
}

// writeSpans writes the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "self time %-10s %10.1f ms\n", l, float64(self[l])/1e6)
	}
}
