package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the daemon are a later change). Spans
// of one replayed request share Req; Parent names the enclosing span
// of the same request, "" for the request's root.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span from absolute times.
func (t *tracer) add(req int, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Req: req, Name: name, Parent: parent,
		StartNs: start.Sub(t.origin).Nanoseconds(),
		EndNs:   end.Sub(t.origin).Nanoseconds(),
	})
}

// time runs f inside a span.
func (t *tracer) time(req int, name, parent string, f func()) {
	start := time.Now()
	f()
	t.add(req, name, parent, start, time.Now())
}

// selfTimes returns, per span name, every span's duration minus the
// part of it covered by its direct children, in microseconds.
// Children of one parent are assumed not to overlap each other, which
// holds for the sequential calls the replay makes.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		req  int
		name string
	}
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.EndNs - s.StartNs - children[key{s.Req, s.Name}]
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// durations returns, per span name, every span's full duration in
// microseconds.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e3)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
