package server

// White-box tests of the telemetry ingest path: the plain-spelling
// scanner in front of the strict decoder, and the in-package ruler of
// bench/'s control_drift operation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

const telemetryRoute = "/v1/deployments/bench/telemetry"

func serveTelemetry(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, telemetryRoute, bytes.NewReader(body)))
	return rec
}

// driftBatch is one control_drift batch over p: every computing node
// at its nominal cost and every directed edge at nominal times k/8, as
// json.Marshal spells a TelemetryRequest.
func driftBatch(tb testing.TB, p *platform.Platform, k int) []byte {
	tb.Helper()
	var obs []control.Observation
	for i := 0; i < p.NumNodes(); i++ {
		if w := p.Weight(i); !w.Inf {
			obs = append(obs, control.Observation{Node: p.Name(i), Value: w.Val.Float64()})
		}
	}
	for _, e := range p.Edges() {
		obs = append(obs, control.Observation{From: p.Name(e.From), To: p.Name(e.To), Value: e.C.Float64() * float64(k) / 8})
	}
	body, err := json.Marshal(TelemetryRequest{Observations: obs})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// telemetryPlatform is the RandomConnected platform of n nodes that
// telemetryHandler deploys.
func telemetryPlatform(n int) *platform.Platform {
	return platform.RandomConnected(rand.New(rand.NewSource(int64(n))), n, n, 5, 5, 0.15)
}

// telemetryHandler is a server tracking telemetryPlatform(n) — at n=10
// the deployment bench/'s control_drift workload tracks — under the id
// "bench", with a control epoch that never ticks, and one batch for it,
// already posted once.
func telemetryHandler(tb testing.TB, n int) (http.Handler, []byte) {
	tb.Helper()
	s, body := telemetryServer(tb, n)
	return s.Handler(), body
}

// telemetryServer is telemetryHandler's server.
func telemetryServer(tb testing.TB, n int) (*Server, []byte) {
	tb.Helper()
	s := New(Config{Control: control.Config{Epoch: time.Hour}})
	tb.Cleanup(s.Close)
	h := s.Handler()
	p := telemetryPlatform(n)
	var plat bytes.Buffer
	if err := p.WriteJSON(&plat); err != nil {
		tb.Fatal(err)
	}
	create, err := json.Marshal(DeploymentRequest{ID: "bench", SolveRequest: SolveRequest{Problem: "masterslave", Platform: plat.Bytes()}})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/deployments", bytes.NewReader(create)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	// One batch ahead, so a measurement sees the path as the workload's
	// every request after its first finds it: pool and label series warm.
	body := driftBatch(tb, p, 11)
	if rec := serveTelemetry(h, body); rec.Code != http.StatusOK {
		tb.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	return s, body
}

// BenchmarkServerHandleTelemetry is the in-package ruler of bench/'s
// control_drift operation, next to BenchmarkServerHandleHot: one batch
// through Handler().ServeHTTP with no client or socket. n=10 is the
// workload's deployment; at n=64, steadyd's default node limit, a batch
// of every computing node and edge is 177 observations (6.2 KB), each
// resolved by name. The request is built once and its body rewound per
// iteration: httptest.NewRequest's 4 KB reader and the collection it
// drives were a quarter of the CPU here, and none of it is the server's.
func BenchmarkServerHandleTelemetry(b *testing.B) {
	for _, n := range []int{10, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h, body := telemetryHandler(b, n)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, telemetryRoute, rd)
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				if h.ServeHTTP(rec, req); rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkTelemetryScan is the first stage of BenchmarkServerHandleTelemetry
// alone: scanTelemetry over the same batch, into a reused slice, as the
// handler's pooled one is. What the handler takes beyond it is the
// request, Observe (BenchmarkObserve in pkg/steady/control) and the
// reply.
func BenchmarkTelemetryScan(b *testing.B) {
	for _, n := range []int{10, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			body := driftBatch(b, telemetryPlatform(n), 11)
			batch, ok := scanTelemetry(body, nil)
			if !ok {
				b.Fatal("the scanner declined a json.Marshal body")
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				batch, _ = scanTelemetry(body, batch[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/observation")
		})
	}
}

// TestTelemetryAllocations pins the ingest path the way
// TestHotHitAllocations pins the hit: one 26-observation batch through
// Handler().ServeHTTP, request and recorder construction included
// (≈ 20 of the allocations), sits at 23. A buffer allocated per body
// instead of taken from bodyPool, a string copy of the body for the
// scanner, or a reply encoded through encoding/json instead of
// appended each fails it, as does the strict decoder on a plain body
// (86) or one allocation per observation anywhere behind it.
func TestTelemetryAllocations(t *testing.T) {
	h, body := telemetryHandler(t, 10)
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveTelemetry(h, body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		return // an instrumented binary's pools drop a Put in four
	}
	if allocs > 23 {
		t.Fatalf("%.0f allocations per telemetry POST, want <= 23", allocs)
	}
}

// TestTelemetryReplyBytes: the appended reply of an accepted batch is
// what writeJSON's indenting encoder writes for the same
// TelemetryResponse, status and headers included.
func TestTelemetryReplyBytes(t *testing.T) {
	for _, n := range []int{1, 26, 320, 4096} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeAccepted(got, n)
		writeJSON(want, http.StatusOK, TelemetryResponse{Accepted: n})
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("n=%d: %d %v %q, want %d %v %q", n, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

// plainSpellings are the three in-repo producers of telemetry bodies:
// json.Marshal of a TelemetryRequest (bench/), json.Marshal of nested
// maps (cmd/steadyagent: keys sorted, floats as strconv spells them),
// and the indented curl example of docs/API.md.
var plainSpellings = []string{
	`{"observations":[{"node":"P2","value":2.05},{"from":"P1","to":"P2","value":1.5}]}`,
	`{"observations":[{"node":"P2","value":2},{"from":"P1","to":"P2","value":1e-7},{"from":"P1","to":"P3","value":1.5e+21}]}`,
	`{
  "observations": [
    {"node": "P2", "value": 2.05},
    {"from": "P1", "to": "P2", "value": 1.5}
  ]
}`,
}

// hostileSpellings are bodies the scanner must leave to the strict
// decoder — some of which it accepts, some of which it refuses.
var hostileSpellings = []string{
	// The two of TestControlBadRequests' telemetry rows that are not
	// plain (the rest are in scannedOddities).
	`{"observations":[{"node":"P2","value":null}]}`,
	`{"observations":[{"node":"P2","value":1e999}]}`,
	// Spellings encoding/json reads differently from the bytes.
	`{"observations":[{"Node":"P2","VALUE":2}]}`,
	`{"OBSERVATIONS":[{"node":"P2","value":2}]}`,
	`{"observations":[{"node":"P3","node":"P2","value":2}]}`,
	`{"observations":[{"node":"P2","value":1,"value":2}]}`,
	`{"observations":[{"node":"\u00502","value":2}]}`,
	`{"observations":[{"n\u006fde":"P2","value":2}]}`,
	`{"observations":[{"node":"P\\2","value":2}]}`,
	"{\"observations\":[{\"node\":\"P\x1f2\",\"value\":2}]}",
	"{\"observations\":[{\"node\":\"P\xff2\",\"value\":2}]}",
	"{\"observations\":[{\"node\":\"P2\xc0\",\"value\":2}]}",
	`{"observations":[{"node":null,"value":2}]}`,
	`{"observations":[{"from":null,"to":"P2","value":2}]}`,
	`{"observations":[{"from":"P1","to":null,"value":2}]}`,
	`{"observations":null}`,
	`{"observations":[null]}`,
	`null`,
	`{}`,
	`[]`,
	``,
	`{"observations":[{"node":"P2","value":01}]}`,
	`{"observations":[{"node":"P2","value":1.}]}`,
	`{"observations":[{"node":"P2","value":.5}]}`,
	`{"observations":[{"node":"P2","value":+1}]}`,
	`{"observations":[{"node":"P2","value":-}]}`,
	`{"observations":[{"node":"P2","value":1e}]}`,
	`{"observations":[{"node":"P2","value":1e+}]}`,
	`{"observations":[{"node":"P2","value":0x10}]}`,
	`{"observations":[{"node":"P2","value":NaN}]}`,
	`{"observations":[{"node":"P2","value":Infinity}]}`,
	`{"observations":[{"node":"P2","value":"2"}]}`,
	`{"observations":[{"node":"P2","value":true}]}`,
	`{"observations":[{"node":2,"value":2}]}`,
	`{"observations":[{"node":"P2","value":2,}]}`,
	`{"observations":[{"node":"P2","value":2},]}`,
	`{"observations":[{"node":"P2" "value":2}]}`,
	`{"observations":[{"node":"P2","value":2}],}`,
	`{"observations":[{"node":"P2","value":2}],"observations":[]}`,
	`{"observations":[{"node":"P2","value":2,"unit":{"name":"s","per":["task"]}}]}`,
	`{"observations":[{"node":"P2","value":2}],"source":"agent-7"}`,
	"\xef\xbb\xbf" + `{"observations":[{"node":"P2","value":2}]}`,
	"\x0c" + `{"observations":[{"node":"P2","value":2}]}`,
	// Trailing data.
	`{"observations":[{"node":"P2","value":2}]}{"observations":[{"node":"P3","value":3}]}`,
	`{"observations":[{"node":"P2","value":2}]} garbage`,
	`{"observations":[{"node":"P2","value":2}]}` + "\x00",
	`{"observations":[{"node":"P2","value":2}]}]`,
}

// scannedOddities are wrong or unusual, but plain: the scanner takes
// them, and Observe refuses what is wrong with them.
var scannedOddities = []string{
	// The rest of TestControlBadRequests' telemetry rows.
	`{"observations":[]}`,
	`{"observations":[{"node":"P9","value":2}]}`,
	`{"observations":[{"from":"P2","to":"P3","value":2}]}`,
	`{"observations":[{"node":"P2","from":"P1","to":"P2","value":2}]}`,
	`{"observations":[{"value":2}]}`,
	`{"observations":[{"node":"P2","value":0}]}`,
	`{"observations":[{"node":"P2","value":-4}]}`,
	`{"observations":[{"node":"P2","value":2},{"node":"P9","value":2}]}`,
	// Unusual.
	`{"observations":[{}]}`,
	`{"observations":[{"node":"P2","value":-0}]}`,
	`{"observations":[{"node":"P2","value":4e-400}]}`,
	`{"observations":[{"value":2E0,"node":"P2"}]}`,
	`{"observations":[{"node":"","from":"","to":"","value":2}]}`,
	`{"observations":[{"node":"Pé→2","value":2}]}`,
}

// valueEdges are values on both sides of the limits of the scanner's
// exact number fast path (jsonscan's numberEdges): 15 and 16 significant
// digits, powers of ten of 22 and 23, zeros, and numbers a wider fast
// path would round differently from strconv.ParseFloat.
var valueEdges = []string{
	`-0`, `0e5`, `123456789012345`, `1234567890123456`, `9007199254740993`, `0.123456789012345`, `0.1234567890123456`,
	`1e22`, `1e23`, `1e-22`, `1e-23`, `0.0000000000000000000001`, `0.00000000000000000000001`, `999999999999999e22`,
	`0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001`,
	`9732574806.491999`, `936804166728.1225`, `0.00000000000000000841491`, `841491e-23`, `900847e23`, `0.33333333333333331`,
}

// scanAgainstStrict is the property that holds the scanner to the
// decoder it stands in front of: whatever it accepts, decodeStrict
// accepts too, as the same observations with the same float bits;
// whatever decodeStrict refuses, it declined. It reports whether the
// scanner took the body.
func scanAgainstStrict(t *testing.T, body []byte) bool {
	t.Helper()
	scanned, ok := scanTelemetry(body, nil)
	var req TelemetryRequest
	err := decodeStrict(body, &req)
	if !ok {
		return false // no opinion
	}
	if err != nil {
		t.Fatalf("the scanner accepted what the strict decoder refuses: %v\nbody: %q", err, body)
	}
	if len(scanned) != len(req.Observations) {
		t.Fatalf("scanned %d observations, strict decoded %d\nbody: %q", len(scanned), len(req.Observations), body)
	}
	for i, got := range scanned {
		want := req.Observations[i]
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("observation %d: value %v (%#x), strict %v (%#x)\nbody: %q",
				i, got.Value, math.Float64bits(got.Value), want.Value, math.Float64bits(want.Value), body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("observation %d: scanned %+v, strict %+v\nbody: %q", i, got, want, body)
		}
	}
	return true
}

func FuzzTelemetryScan(f *testing.F) {
	for _, body := range plainSpellings {
		f.Add([]byte(body))
		for cut := range len(body) {
			f.Add([]byte(body[:cut]))
		}
	}
	for _, body := range append(hostileSpellings, scannedOddities...) {
		f.Add([]byte(body))
	}
	for _, v := range valueEdges {
		f.Add([]byte(`{"observations":[{"from":"P1","to":"P2","value":` + v + `}]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) { scanAgainstStrict(t, body) })
}

// TestTelemetryScanLargeBatch is the property at 10 000 observations,
// past every buffer the path presizes or pools. (A body this size is
// not a fuzz seed: the engine spends its whole budget minimising its
// mutations.)
func TestTelemetryScanLargeBatch(t *testing.T) {
	var big bytes.Buffer
	big.WriteString(`{"observations":[`)
	for i := 0; i < 10000; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"from":"N%d","to":"N%d","value":%d.%d}`, i%64, (i+1)%64, 1+i%9, i)
	}
	big.WriteString(`]}`)
	if !scanAgainstStrict(t, big.Bytes()) {
		t.Fatal("the scanner declined a plain 10 000-observation body")
	}
	if scanAgainstStrict(t, append(big.Bytes(), '{')) {
		t.Fatal("the scanner took a body with trailing data")
	}
}

// TestTelemetrySpellings is the scanner's contract seen from outside,
// through steady_telemetry_decode_total alone: every in-repo producer's
// spelling is scanned, every hostile one goes to the strict decoder,
// and either way the answer is the strict decoder's — status and error
// text are those of a handler that has no scanner at all (the
// reference below), so deleting the scanner changes nothing but the
// counter.
func TestTelemetrySpellings(t *testing.T) {
	s := New(Config{Control: control.Config{Epoch: time.Hour}})
	defer s.Close()
	h := s.Handler()
	p := platform.New()
	p1 := p.AddNode("P1", platform.WInt(1))
	p.AddEdge(p1, p.AddNode("P2", platform.WInt(2)), rat.FromInt(1))
	p.AddEdge(p1, p.AddNode("P3", platform.WInt(3)), rat.FromInt(2))
	// The reference observes into a twin deployment, so that accepted
	// batches count once on each.
	for _, id := range []string{"bench", "twin"} {
		if _, err := s.manager.Create(context.Background(), id, steady.Spec{Problem: "masterslave", Root: "P1"}, p); err != nil {
			t.Fatal(err)
		}
	}
	// reference answers a body from the strict decoder and the manager
	// directly: the handler as it was before the scanner, plus the one
	// deliberate tightening decodeStrict carries.
	reference := func(body string) string {
		var req TelemetryRequest
		err := decodeStrict([]byte(body), &req)
		status := http.StatusBadRequest
		if err == nil {
			var n int
			if n, err = s.manager.Observe("twin", req.Observations); err == nil {
				return fmt.Sprintf(`200 {"accepted":%d}`, n)
			}
			status = statusFor(err)
		}
		msg, _ := json.Marshal(ErrorResponse{Error: err.Error()})
		return fmt.Sprintf("%d %s", status, msg)
	}
	post := func(body string) string {
		t.Helper()
		rec := serveTelemetry(h, []byte(body))
		var reply bytes.Buffer
		if err := json.Compact(&reply, rec.Body.Bytes()); err != nil {
			t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
		}
		return fmt.Sprintf("%d %s", rec.Code, reply.String())
	}
	check := func(body, path string) {
		t.Helper()
		scan, strict := s.telemetry.scan.Value(), s.telemetry.strict.Value()
		got := post(body)
		scan, strict = s.telemetry.scan.Value()-scan, s.telemetry.strict.Value()-strict
		if scan+strict != 1 || (scan == 1) != (path == "scan") {
			t.Errorf("counted scan +%d strict +%d, want the %s path\nbody: %q", scan, strict, path, body)
		}
		if want := reference(body); got != want {
			t.Errorf("answered %s\nwant     %s\nbody: %q", got, want, body)
		}
	}
	for _, body := range plainSpellings {
		check(body, "scan")
		check(body+"\n", "scan")
		check("\r\n\t "+body+" \n", "scan")
	}
	for _, body := range scannedOddities {
		check(body, "scan")
	}
	for _, body := range hostileSpellings {
		check(body, "strict")
	}
	// Every refusal left the deployment where the accepted batches had
	// it: the handler applied exactly what its strict-only twin did.
	snap, err := s.manager.Get("bench")
	if err != nil {
		t.Fatal(err)
	}
	twin, err := s.manager.Get("twin")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Observations == 0 || snap.Observations != twin.Observations {
		t.Fatalf("deployment saw %d observations, its strict-only twin %d", snap.Observations, twin.Observations)
	}

	// What the parent commit answered, pinned literally for the rows a
	// client is most likely to meet (trailing data is the one row it
	// answered differently: 200).
	for body, want := range map[string]string{
		`{"observations":[{"Node":"P2","VALUE":2}]}`:                         `200 {"accepted":1}`,
		`{"observations":[{"node":"P3","node":"P2","value":2}]}`:             `200 {"accepted":1}`,
		`{"observations":[{"node":"\u00502","value":2}]}`:                    `200 {"accepted":1}`,
		`{"observations":[{"node":"P2","value":-0}]}`:                        `400 {"error":"observation 0: forecast: bad measurement: non-positive value -0"}`,
		`{"observations":[{"node":"P2","value":null}]}`:                      `400 {"error":"observation 0: forecast: bad measurement: non-positive value 0"}`,
		`{"observations":[{"node":"P2","value":1e999}]}`:                     `400 {"error":"decode request: json: cannot unmarshal number 1e999 into Go struct field Observation.observations.value of type float64"}`,
		`{"observations":[{"node":"P2","value":2}],"source":"agent-7"}`:      `400 {"error":"decode request: json: unknown field \"source\""}`,
		`{"observations":[{"node":"P2","value":01}]}`:                        `400 {"error":"decode request: invalid character '1' after object key:value pair"}`,
		`{"observations":[{"node":"P2","value":2}]} garbage`:                 `400 {"error":"decode request: unexpected data after the JSON value"}`,
		`{"observations":[{"node":"P2","value":2}]}{"observations":[]}`:      `400 {"error":"decode request: unexpected data after the JSON value"}`,
		"\xef\xbb\xbf" + `{"observations":[{"node":"P2","value":2}]}`:        `400 {"error":"decode request: invalid character 'ï' looking for beginning of value"}`,
		`{"observations":[{"node":"P9","value":2}]}`:                         `400 {"error":"observation 0: control: bad observation: unknown node \"P9\""}`,
		`{"observations":[{"node":"P2","from":"P1","to":"P2","value":2}]}`:   `400 {"error":"observation 0: control: bad observation: names both a node (\"P2\") and an edge"}`,
		`{"observations":[{"from":"P2","to":"P3","value":2}]}`:               `400 {"error":"observation 0: control: bad observation: no edge P2\u003eP3 in the platform"}`,
		`{"observations":[]}`:                                                `400 {"error":"control: bad observation: empty batch"}`,
		`{"observations":[{"node":"P2","value":2},{"node":"P9","value":2}]}`: `400 {"error":"observation 1: control: bad observation: unknown node \"P9\""}`,
	} {
		if got := post(body); got != want {
			t.Errorf("answered %s\nwant     %s\nbody: %q", got, want, body)
		}
	}
}
