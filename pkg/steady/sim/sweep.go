package sim

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/batch"
	"repro/pkg/steady/platform"
)

// Cell is one (platform, solver spec, scenario) cell of a simulation
// sweep: the spec is solved on the platform (through the sweep's
// LP-solution cache) and the result is simulated under the scenario.
type Cell struct {
	// ID is an optional caller-chosen label carried into the outcome.
	ID       string
	Platform *platform.Platform
	Spec     steady.Spec
	Scenario Scenario
}

// CellOutcome is the terminal state of one sweep cell.
type CellOutcome struct {
	// ID echoes Cell.ID.
	ID string
	// Report is the simulation report; nil when Err is set.
	Report *Report
	Err    error
	// CacheHit reports that the cell's solve was served from the
	// sweep's LP-solution cache.
	CacheHit bool
	// Elapsed is the wall time of solve plus simulation.
	Elapsed time.Duration
}

// CellSink receives outcomes as they complete. batch.Pool serializes
// its emits, so a sink called from one may write to a shared stream
// without its own locking; a non-nil error stops the sweep.
type CellSink func(CellOutcome) error

// Sweep runs all cells with bounded parallelism (Config.Workers) and
// returns their outcomes in cell order. Distinct cells that share a
// (platform, spec) pair solve the LP once — the sweep's cells share one
// batch.Cache made for the call — so scenario grids over one platform
// family cost one solve per platform. Cancellation marks the cells not
// yet started rather than dropping them (batch.Pool).
func (e *Engine) Sweep(ctx context.Context, cells []Cell) []CellOutcome {
	workers := e.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := batch.NewCache(0, 0)
	out := make([]CellOutcome, len(cells))
	_ = batch.Pool(ctx, workers, len(cells),
		func(ctx context.Context, i int) CellOutcome { return e.runCell(ctx, cache, cells[i]) },
		func(i int, err error) CellOutcome { return CellOutcome{ID: cells[i].ID, Err: err} },
		func(i int, o CellOutcome) error {
			out[i] = o
			return nil
		})
	return out
}

// runCell solves one cell through cache and simulates it under the
// caller's context.
func (e *Engine) runCell(ctx context.Context, cache *batch.Cache, cell Cell) (o CellOutcome) {
	start := time.Now()
	o = CellOutcome{ID: cell.ID}
	defer func() { o.Elapsed = time.Since(start) }()
	if cell.Platform == nil {
		o.Err = fmt.Errorf("sim: cell %q needs a platform", cell.ID)
		return o
	}
	solver, err := steady.New(cell.Spec)
	if err != nil {
		o.Err = err
		return o
	}
	res, err, hit := cache.DoSolve(ctx, batch.KeyFor(cell.Platform, solver), solver.Name(), func(ctx context.Context, opts ...steady.SolveOption) (*steady.Result, error) {
		return solver.Solve(ctx, cell.Platform, opts...)
	})
	o.CacheHit = hit
	if err != nil {
		o.Err = err
		return o
	}
	o.Report, o.Err = e.Run(ctx, res, cell.Scenario)
	return o
}

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
