package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim"
)

// TestSweepWireBytes pins the records /v1/sweep and /v1/simsweep stream,
// in both formats: the CSV header, an ok record, an error record (a
// platform without the root) and a skipped one (a job the pool never
// started because the request's context had ended). Only elapsed_us
// and cache_hit are masked, and records are sorted, since a sweep
// emits them in completion order.
func TestSweepWireBytes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	var fig1 bytes.Buffer
	if err := platform.Figure1().WriteJSON(&fig1); err != nil {
		t.Fatal(err)
	}
	noRoot := json.RawMessage(`{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"2"}],"edges":[{"from":"A","to":"B","c":"1"}]}`)
	unsolved := json.RawMessage(`{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"}],"edges":[{"from":"P1","to":"P2","c":"1"}]}`)

	// post runs one sweep in process. A cancelled ctx reaches the pool
	// before any job does: with one P the worker has not run yet when
	// the feeder first selects, so every job is reported skipped. The
	// held slot makes a job that did start fail with the same error.
	post := func(path, format string, ctx context.Context, platforms ...json.RawMessage) string {
		t.Helper()
		sweep := SweepRequest{Problem: "masterslave", Root: "P1", Platforms: platforms, Format: format}
		var body any = sweep
		if path == "/v1/simsweep" {
			body = SimSweepRequest{SweepRequest: sweep, Scenarios: []sim.Scenario{{Name: "short", Periods: 20}}}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, format, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	skipped := func(path, format string) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return post(path, format, ctx, unsolved)
	}
	mask := regexp.MustCompile(`"cache_hit":(true|false),"elapsed_us":\d+|,(true|false),\d+,`)
	normalize := func(out, format string) string {
		out = mask.ReplaceAllStringFunc(out, func(m string) string {
			if m[0] == ',' {
				return ",_,_,"
			}
			return `"cache_hit":_,"elapsed_us":_`
		})
		lines := strings.SplitAfter(out, "\n")
		lines = lines[:len(lines)-1]
		if format == "csv" { // the header stays first
			sort.Strings(lines[1:])
		} else {
			sort.Strings(lines)
		}
		return strings.Join(lines, "")
	}

	for _, tc := range []struct{ path, format, want string }{
		{"/v1/sweep", "ndjson", sweepNDJSON},
		{"/v1/sweep", "csv", sweepCSV},
		{"/v1/simsweep", "ndjson", simSweepNDJSON},
		{"/v1/simsweep", "csv", simSweepCSV},
	} {
		live := post(tc.path, tc.format, context.Background(), fig1.Bytes(), noRoot)
		skip := skipped(tc.path, tc.format)
		if tc.format == "csv" { // one header per stream
			skip = skip[strings.IndexByte(skip, '\n')+1:]
		}
		got := normalize(live+skip, tc.format)
		if got != tc.want {
			t.Errorf("%s %s:\n got:\n%s\nwant:\n%s", tc.path, tc.format, got, tc.want)
		}
	}
}

// The wire, masked and sorted; a job of the skipped stream is p00 too.
const (
	sweepNDJSON = `{"job":"p00","solver":"masterslave[root=P1]","cache_hit":_,"elapsed_us":_,"error":"context canceled"}
{"job":"p00","solver":"masterslave[root=P1]","platform":"8dfbcff520e1f17e698fdb465529c6fe37027185aa361a91b97ad5125140e767","throughput":"4/3","value":1.3333333333333333,"cache_hit":_,"elapsed_us":_}
{"job":"p01","solver":"masterslave[root=P1]","cache_hit":_,"elapsed_us":_,"error":"steady: no such node: unknown node \"P1\""}
`
	sweepCSV = `job,solver,platform,throughput,value,cache_hit,elapsed_us,error
p00,masterslave[root=P1],,,0,_,_,context canceled
p00,masterslave[root=P1],8dfbcff520e1f17e698fdb465529c6fe37027185aa361a91b97ad5125140e767,4/3,1.3333333333333333,_,_,
p01,masterslave[root=P1],,,0,_,_,"steady: no such node: unknown node ""P1"""
`
	simSweepNDJSON = `{"cell":"p00/short","cache_hit":_,"elapsed_us":_,"error":"context canceled"}
{"cell":"p00/short","report":{"solver":"masterslave[root=P1]","problem":"masterslave","model":"send-and-receive","scenario":"short","kind":"periodic","certified":"4/3","certified_value":1.3333333333333333,"schedule_throughput":"4/3","achieved":"151/120","achieved_value":1.2583333333333333,"ratio":"151/160","ratio_value":0.94375,"periods":20,"period":"6","steady_after":2,"ops":"151"},"cache_hit":_,"elapsed_us":_}
{"cell":"p01/short","cache_hit":_,"elapsed_us":_,"error":"steady: no such node: unknown node \"P1\""}
`
	simSweepCSV = `cell,solver,scenario,kind,certified,achieved,ratio,steady_after,periods,makespan,done,cache_hit,elapsed_us,error
p00/short,,,,,,,,,,,_,_,context canceled
p00/short,masterslave[root=P1],short,periodic,4/3,151/120,0.94375,2,20,0,0,_,_,
p01/short,,,,,,,,,,,_,_,"steady: no such node: unknown node ""P1"""
`
)
