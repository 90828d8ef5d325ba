package event

import (
	"encoding/json"
	"io"
)

// Record is one structured trace event. The field set is the union of
// what the two simulation substrates report; unused fields are
// omitted from the JSON encoding, and the fixed field order plus
// Go's deterministic float/JSON formatting make the encoded form
// byte-stable: the same run always serializes to the same bytes.
//
// Kinds emitted by the exact periodic replay (integral counts travel
// in Count as decimal strings, exact at any magnitude):
//
//	transfer   units moved over Edge for Commodity this period
//	compute    units consumed at Node for Commodity this period
//	deliver    units delivered to sink Node for Commodity this period
//	period     per-period summary (Count = completions this period)
//	steady     every commodity sustained its quota this period
//	extrapolate remaining horizon extrapolated arithmetically
//	            (Value = periods, Count = completions added)
//
// Kinds emitted by the online one-port simulator (float dynamics):
//
//	arrival        a task became available at the master (Task =
//	               cumulative arrivals)
//	request        Node asked its parent for work
//	send-start     a task file started crossing Edge (Value = duration)
//	send-end       it arrived (Task = cumulative files over Edge)
//	compute-start  Node started a task (Value = duration)
//	compute-end    Node finished one (Task = its cumulative count)
//	down, up       a failure window opened/closed on Node or Edge
//	epoch          an observation epoch ended (Value = epoch length)
//	resolve        an adaptive re-solve decision (emitted by the
//	               controller wiring; Note = cold, Task = pivots,
//	               Value = new certified throughput)
type Record struct {
	// Seq is the trace sequence number, dense from 0 per run.
	Seq int64 `json:"seq"`
	// T is the simulated time of the event (the period index for the
	// exact replay).
	T float64 `json:"t"`
	// Kind discriminates the event, see above.
	Kind string `json:"kind"`
	// Node and Edge name the resource involved ("P2", "P1->P2").
	Node string `json:"node,omitempty"`
	Edge string `json:"edge,omitempty"`
	// Commodity labels the flow/dissemination in periodic replays.
	Commodity string `json:"commodity,omitempty"`
	// Count carries exact integral counts as decimal strings.
	Count string `json:"count,omitempty"`
	// Task carries small integral counts of the online simulator.
	Task int64 `json:"task,omitempty"`
	// Value carries float quantities (durations, rates, lengths).
	Value float64 `json:"value,omitempty"`
	// Note carries free-form qualifiers ("cold").
	Note string `json:"note,omitempty"`
}

// Recorder receives trace records in emission order. Implementations
// need not be safe for concurrent use: a Loop emits from a single
// goroutine.
type Recorder interface {
	Record(Record)
}

// WriterRecorder streams records as JSON lines (one object per line)
// to an io.Writer — the on-disk/golden/wire format of event traces.
type WriterRecorder struct {
	enc *json.Encoder
	n   int64
	err error
}

// NewWriterRecorder returns a recorder encoding to w.
func NewWriterRecorder(w io.Writer) *WriterRecorder {
	return &WriterRecorder{enc: json.NewEncoder(w)}
}

// Record implements Recorder. After the first write error the
// recorder goes silent; check Err at the end of the run.
func (r *WriterRecorder) Record(rec Record) {
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(rec); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Count returns the number of records written.
func (r *WriterRecorder) Count() int64 { return r.n }

// Err returns the first write error, if any.
func (r *WriterRecorder) Err() error { return r.err }

// MemoryRecorder collects records in memory, keeping at most Limit
// (0 = unlimited) and counting the overflow — the bounded form served
// over HTTP by pkg/steady/server.
type MemoryRecorder struct {
	// Limit caps len(Records); further records only bump Dropped.
	Limit int
	// Records are the collected events in emission order.
	Records []Record
	// Dropped counts records discarded after Limit was reached.
	Dropped int64
}

// Record implements Recorder.
func (m *MemoryRecorder) Record(rec Record) {
	if m.Limit > 0 && len(m.Records) >= m.Limit {
		m.Dropped++
		return
	}
	m.Records = append(m.Records, rec)
}
