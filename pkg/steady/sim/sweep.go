package sim

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// CellOutcome is the terminal state of one cell of a simulation sweep:
// one (platform, solver spec, scenario) triple, solved and then
// simulated. POST /v1/simsweep streams one per cell.
type CellOutcome struct {
	// ID is the cell's label.
	ID string
	// Report is the simulation report; nil when Err is set.
	Report *Report
	Err    error
	// CacheHit reports that the cell's solve was served from an
	// LP-solution cache.
	CacheHit bool
	// Elapsed is the wall time of solve plus simulation.
	Elapsed time.Duration
}

// CellSink receives outcomes as they complete. batch.Pool serializes
// its emits, so a sink called from one may write to a shared stream
// without its own locking; a non-nil error stops the sweep.
type CellSink func(CellOutcome) error

// CellRecord is the serialized form of a CellOutcome shared by the
// JSON and CSV sinks. The embedded report keeps certified quantities
// as exact-rational strings.
type CellRecord struct {
	Cell     string  `json:"cell,omitempty"`
	Report   *Report `json:"report,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	MicroSec int64   `json:"elapsed_us"`
	Err      string  `json:"error,omitempty"`
}

// ToCellRecord flattens an outcome for serialization.
func ToCellRecord(o CellOutcome) CellRecord {
	r := CellRecord{
		Cell:     o.ID,
		Report:   o.Report,
		CacheHit: o.CacheHit,
		MicroSec: o.Elapsed.Microseconds(),
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	return r
}

// JSONCellSink returns a sink streaming one JSON object per line.
func JSONCellSink(w io.Writer) CellSink {
	enc := json.NewEncoder(w)
	return func(o CellOutcome) error {
		return enc.Encode(ToCellRecord(o))
	}
}

var cellCSVHeader = []string{
	"cell", "solver", "scenario", "kind", "certified", "achieved",
	"ratio", "steady_after", "periods", "makespan", "done",
	"cache_hit", "elapsed_us", "error",
}

// CSVCellSink returns a sink streaming CSV rows as cells complete,
// writing the header before the first record and flushing after every
// record so partial output is usable.
func CSVCellSink(w io.Writer) CellSink {
	cw := csv.NewWriter(w)
	wroteHeader := false
	return func(o CellOutcome) error {
		if !wroteHeader {
			if err := cw.Write(cellCSVHeader); err != nil {
				return err
			}
			wroteHeader = true
		}
		rec := ToCellRecord(o)
		row := make([]string, len(cellCSVHeader))
		row[0] = rec.Cell
		if rep := rec.Report; rep != nil {
			row[1] = rep.Solver
			row[2] = rep.Scenario
			row[3] = rep.Kind
			row[4] = rep.Certified
			row[5] = rep.Achieved
			row[6] = strconv.FormatFloat(rep.RatioValue, 'g', -1, 64)
			row[7] = strconv.FormatInt(rep.SteadyAfter, 10)
			row[8] = strconv.FormatInt(rep.Periods, 10)
			row[9] = strconv.FormatFloat(rep.Makespan, 'g', -1, 64)
			row[10] = strconv.Itoa(rep.Done)
		}
		row[11] = strconv.FormatBool(rec.CacheHit)
		row[12] = strconv.FormatInt(rec.MicroSec, 10)
		row[13] = rec.Err
		if err := cw.Write(row); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
}
