package batch

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Record is the serialized form of an Outcome shared by the JSON and
// CSV writers. Throughput is the exact rational as a string — the
// repository-wide invariant is that results are exact; Value is the
// nearest float64 for spreadsheet consumers.
type Record struct {
	Job      string  `json:"job,omitempty"`
	Solver   string  `json:"solver"`
	Platform string  `json:"platform,omitempty"` // canonical fingerprint
	Tput     string  `json:"throughput,omitempty"`
	Value    float64 `json:"value,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	MicroSec int64   `json:"elapsed_us"`
	Err      string  `json:"error,omitempty"`
}

// ToRecord flattens an outcome for serialization.
func ToRecord(o Outcome) Record {
	r := Record{
		Job:      o.JobID,
		Solver:   o.Solver,
		CacheHit: o.CacheHit,
		MicroSec: o.Elapsed.Microseconds(),
	}
	if o.Result != nil {
		r.Platform = o.Result.Fingerprint
		r.Tput = o.Result.Throughput.String()
		r.Value = o.Result.ThroughputFloat()
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	return r
}

// JSONSink returns a Sink that streams one JSON object per line
// (JSON Lines) to w as outcomes complete.
func JSONSink(w io.Writer) Sink {
	enc := json.NewEncoder(w)
	return func(o Outcome) error {
		return enc.Encode(ToRecord(o))
	}
}

var csvHeader = []string{"job", "solver", "platform", "throughput", "value", "cache_hit", "elapsed_us", "error"}

// CSVSink returns a Sink that streams CSV to w as outcomes complete,
// writing the header before the first record and flushing after
// every record so partial output is usable.
func CSVSink(w io.Writer) Sink {
	cw := csv.NewWriter(w)
	wroteHeader := false
	return func(o Outcome) error {
		if !wroteHeader {
			if err := cw.Write(csvHeader); err != nil {
				return err
			}
			wroteHeader = true
		}
		r := ToRecord(o)
		if err := cw.Write([]string{
			r.Job, r.Solver, r.Platform, r.Tput,
			strconv.FormatFloat(r.Value, 'g', -1, 64),
			strconv.FormatBool(r.CacheHit),
			strconv.FormatInt(r.MicroSec, 10),
			r.Err,
		}); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
}
