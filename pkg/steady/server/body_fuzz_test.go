package server_test

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

// fuzzServer is the small server the body fuzzers post to: at most 8
// nodes and 4 sweep jobs, each solve or simulation cut at 200 ms, and
// traces of at most 16 records, so that one input stays cheap.
func fuzzServer(f *testing.F) http.Handler {
	srv := server.New(server.Config{MaxNodes: 8, MaxSweepJobs: 4, SolveTimeout: 200 * time.Millisecond, MaxInFlight: 2, MaxTraceEvents: 16})
	f.Cleanup(srv.Close)
	return srv.Handler()
}

// figure1JSON is the paper's Figure 1 platform in canonical JSON.
func figure1JSON(f *testing.F) string {
	var b bytes.Buffer
	if err := platform.Figure1().WriteJSON(&b); err != nil {
		f.Fatal(err)
	}
	return strings.TrimSpace(b.String())
}

// FuzzSweepBody POSTs arbitrary bytes to /v1/sweep and holds the reply
// to the endpoint's contract: no panic, a status in {200, 400, 413}
// (per-job failures travel inside the records), and on 200 a stream of
// records that each name their job and solver and carry either a
// result — fingerprint and throughput — or an error (NDJSON lines that
// decode into server.SweepRecord, or CSV rows under the record header).
func FuzzSweepBody(f *testing.F) {
	fig1 := figure1JSON(f)
	for _, seed := range []string{
		`{"problem":"masterslave","generator":{"count":3,"sizes":[4,5],"seed":3}}`,
		`{"problem":"scatter","root":"N0","targets":["N1"],"generator":{"count":2,"sizes":[3]},"format":"csv"}`,
		`{"problem":"masterslave","root":"P1","platforms":[` + fig1 + `,` + fig1 + `]}`,
		`{"problem":"multicast","root":"P0","targets":["P9"],"platforms":[` + fig1 + `]}`,
		`{"problem":"masterslave","generator":{"count":100,"sizes":[500]}}`,
		`{"problem":"masterslave","generator":{"count":1},"platforms":[` + fig1 + `]}`,
	} {
		f.Add([]byte(seed))
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		switch rw.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %s", rw.Code, body, rw.Body.Bytes())
		}
		if rw.Header().Get("Content-Type") == "text/csv" {
			checkCSVRecords(t, rw.Body.String())
			return
		}
		sc := bufio.NewScanner(rw.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var rec server.SweepRecord
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("line %q: %v", sc.Bytes(), err)
			}
			checkRecord(t, rec.Job, rec.Solver, rec.Platform, rec.Tput, rec.Err)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// checkRecord holds one sweep record to its shape.
func checkRecord(t *testing.T, job, solver, fingerprint, throughput, errText string) {
	t.Helper()
	if job == "" || solver == "" {
		t.Fatalf("record without a job or a solver: job %q solver %q", job, solver)
	}
	if (errText == "") == (throughput == "") || (throughput == "") != (fingerprint == "") {
		t.Fatalf("record %s: throughput %q, fingerprint %q, error %q: want a result or an error", job, throughput, fingerprint, errText)
	}
}

// checkCSVRecords reads a CSV sweep stream: the record header, then
// rows of the record's shape.
func checkCSVRecords(t *testing.T, body string) {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != "job,solver,platform,throughput,value,cache_hit,elapsed_us,error" {
		t.Fatalf("bad CSV header in %q", rows)
	}
	for _, row := range rows[1:] {
		checkRecord(t, row[0], row[1], row[2], row[3], row[7])
	}
}

// FuzzSimulateBody POSTs arbitrary bytes to /v1/simulate and holds the
// reply to the endpoint's contract: no panic, a status in {200, 400,
// 413, 503, 504}, and on 200 a response that decodes into
// server.SimulateResponse, whose report names its solver, a known
// substrate and the certified rate, and whose trace, when asked for,
// stays within the server's limit.
func FuzzSimulateBody(f *testing.F) {
	fig1 := figure1JSON(f)
	for _, seed := range []string{
		`{"problem":"masterslave","root":"P1","platform":` + fig1 + `}`,
		`{"problem":"masterslave","root":"P1","scenario":{"periods":50},"trace":true,"platform":` + fig1 + `}`,
		`{"problem":"masterslave","root":"P1","scenario":{"tasks":30,"slowdowns":[{"node":"P2","factor":3,"from":1,"until":5}]},"platform":` + fig1 + `}`,
		`{"problem":"masterslave","root":"P1","scenario":{"tasks":20,"adaptive":true,"epoch":2,"arrivals":{"kind":"poisson","rate":1,"count":20},"seed":4},"platform":` + fig1 + `}`,
		`{"problem":"masterslave","root":"P1","model":"send-or-receive","platform":` + fig1 + `}`,
		`{"problem":"broadcast","root":"P1","platform":` + fig1 + `}`,
		`{"problem":"masterslave","root":"P1","scenario":{"failures":[{"node":"P3","from":0,"until":1e308}],"tasks":5},"platform":` + fig1 + `}`,
	} {
		f.Add([]byte(seed))
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		switch rw.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for %q: %s", rw.Code, body, rw.Body.Bytes())
		}
		var resp server.SimulateResponse
		dec := json.NewDecoder(rw.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("200 body for %q: %v", body, err)
		}
		rep := resp.Report
		if rep == nil || rep.Solver == "" || rep.Certified == "" {
			t.Fatalf("200 for %q without a report naming its solver and certified rate: %+v", body, rep)
		}
		switch rep.Kind {
		case "periodic", "online", "greedy":
		default:
			t.Fatalf("200 for %q: report kind %q", body, rep.Kind)
		}
		if len(resp.Trace) > 16 || resp.TraceTruncated && len(resp.Trace) != 16 {
			t.Fatalf("200 for %q: %d trace records, truncated %v, with a limit of 16", body, len(resp.Trace), resp.TraceTruncated)
		}
	})
}
