package server_test

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady/server"
)

// FuzzSimSweepBody POSTs arbitrary bytes to /v1/simsweep on a small
// server and holds the reply to the endpoint's contract: no panic, a
// status in {200, 400, 413, 503, 504}, and on 200 a stream of cell
// records that each name their cell (NDJSON lines that decode into
// server.CellRecord, or CSV rows under the cell header). The limits keep
// one input cheap: at most 8 nodes and 4 cells, each cell's solve and
// simulation cut at 200 ms.
func FuzzSimSweepBody(f *testing.F) {
	for _, seed := range []string{
		`{"problem":"masterslave","generator":{"count":2,"sizes":[4,5],"seed":3},` +
			`"scenarios":[{"name":"static"},{"name":"slow","tasks":40,"slowdowns":[{"node":"N1","factor":2,"from":1,"until":9}]}]}`,
		`{"problem":"scatter","root":"N0","targets":["N1"],"generator":{"count":1,"sizes":[3]},"format":"csv"}`,
		`{"problem":"masterslave","generator":{"count":1},"scenarios":[{"name":"a"},{"name":"a","periods":5}]}`,
		`{"problem":"masterslave","generator":{"count":100,"sizes":[500]}}`,
	} {
		f.Add([]byte(seed))
	}
	srv := server.New(server.Config{MaxNodes: 8, MaxSweepJobs: 4, SolveTimeout: 200 * time.Millisecond, MaxInFlight: 2})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/simsweep", bytes.NewReader(body)))
		switch rw.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for %q: %s", rw.Code, body, rw.Body.Bytes())
		}
		if rw.Header().Get("Content-Type") == "text/csv" {
			checkCSVCells(t, rw.Body)
			return
		}
		sc := bufio.NewScanner(rw.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec server.CellRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("line %q: %v", sc.Bytes(), err)
			}
			if rec.Cell == "" {
				t.Fatalf("record without a cell: %s", sc.Bytes())
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// checkCSVCells reads a CSV cell stream: the cell header, then rows
// whose first column names their cell.
func checkCSVCells(t *testing.T, r io.Reader) {
	t.Helper()
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != "cell,solver,scenario,kind,certified,achieved,ratio,steady_after,periods,makespan,done,cache_hit,elapsed_us,error" {
		t.Fatalf("bad CSV header in %q", rows)
	}
	for _, row := range rows[1:] {
		if row[0] == "" {
			t.Fatalf("CSV row without a cell: %q", row)
		}
	}
}
