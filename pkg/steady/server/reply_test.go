package server

// The reflective rendering of a /v1/solve reply — the SolveResponse
// struct through the indenting encoder — lives here, as the reference
// the appended rendering (encBuf.solveHead) is held to.

import (
	"bytes"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/rat"
)

func solveResponse(res *steady.Result, hit bool, elapsedMicros int64) *SolveResponse {
	out := &SolveResponse{
		Solver:        res.Solver,
		Problem:       res.Problem,
		Model:         res.Model.String(),
		Fingerprint:   res.Fingerprint,
		Throughput:    res.Throughput.String(),
		Value:         res.ThroughputFloat(),
		Trees:         res.Trees,
		CacheHit:      hit,
		ElapsedMicros: elapsedMicros,
	}
	out.Nodes, out.Links = res.Rates()
	return out
}

// replyPair renders one reply both ways.
func replyPair(res *steady.Result, hit bool, elapsedMicros int64) (appended, encoded *httptest.ResponseRecorder) {
	appended, encoded = httptest.NewRecorder(), httptest.NewRecorder()
	writeSolve(appended, &solveRecord{}, res, hit, elapsedMicros)
	writeJSON(encoded, http.StatusOK, solveResponse(res, hit, elapsedMicros))
	return appended, encoded
}

// TestSolveReplyMatchesEncoder: writeSolve's bytes are writeJSON's of
// the same SolveResponse on results no solver would produce but the
// types allow — names the HTML-safe encoder escapes or repairs,
// rationals past int64, zero rates, omitted sections, and throughputs
// in both of the float format's exponent regimes.
func TestSolveReplyMatchesEncoder(t *testing.T) {
	huge := new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(3), 80), new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(1)))
	names := []string{
		"P1", "", " ", "a b", "~", "\x7f", `<script>`, `a&b`, `say "hi"`, `back\slash`, "tab\there", "nul\x00",
		"line\u2028sep", "para\u2029sep", "Pé→2", "日本", "bad\xffutf8", "cut\xc3", "\xed\xa0\x80", "[root=x,y]+%",
	}
	rats := []rat.Rat{
		rat.Zero(), rat.One(), rat.New(-7, 3), rat.New(1, 1<<62), rat.FromInt(-1 << 63),
		rat.FromBig(huge), rat.FromBig(new(big.Rat).Neg(huge)), rat.FromBig(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 100))),
	}
	var results []*steady.Result
	for i, name := range names {
		res := &steady.Result{
			Solver:      "masterslave[root=" + name + "]",
			Problem:     name,
			Model:       steady.PortModel(i % 2),
			Fingerprint: name,
			Throughput:  rats[i%len(rats)],
			Trees:       i % 3,
		}
		for j, x := range rats {
			res.Nodes = append(res.Nodes, steady.NodeActivity{Name: names[(i+j)%len(names)], Alpha: x, Rate: rats[(i+j)%len(rats)]})
			res.Links = append(res.Links, steady.LinkActivity{From: name, To: names[(i+j)%len(names)], Busy: x})
		}
		switch i % 4 {
		case 1:
			res.Nodes = nil // the distribution problems
		case 2:
			res.Links = []steady.LinkActivity{}
		case 3:
			res.Nodes, res.Links = res.Nodes[:1], res.Links[:1]
		}
		results = append(results, res)
	}
	// The encoder switches to exponent notation below 1e-6 and from
	// 1e21, and shortens a two-digit exponent's leading zero.
	for _, throughput := range []rat.Rat{
		rat.New(1, 10_000_000), rat.New(1, 1_000_000), rat.New(-1, 3_000_000_000), rat.New(1, 1<<62),
		rat.FromBig(new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(21), nil))),
		rat.FromBig(new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(20), nil))),
		rat.FromBig(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(10), big.NewInt(300), nil))),
		rat.FromBig(new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(7), big.NewInt(300), nil))),
		rat.New(4, 3), rat.FromInt(100), rat.Zero(),
	} {
		results = append(results, &steady.Result{Solver: "broadcast", Problem: "broadcast", Throughput: throughput})
	}
	for _, res := range results {
		for _, hit := range []bool{false, true} {
			for _, elapsed := range []int64{0, 7, 1234567} {
				got, want := replyPair(res, hit, elapsed)
				if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("solver %q: appended reply differs from the encoder's\n got: %d %s\nwant: %d %s",
						res.Solver, got.Code, got.Body, want.Code, want.Body)
				}
				if got.Header().Get("Content-Length") != want.Header().Get("Content-Length") {
					t.Fatalf("solver %q: Content-Length %s, the encoder's reply has %s",
						res.Solver, got.Header().Get("Content-Length"), want.Header().Get("Content-Length"))
				}
			}
		}
	}

	// A throughput no float64 holds is the encoder's to refuse, and it
	// refuses both renderings the same way.
	overflow := &steady.Result{Solver: "x", Throughput: rat.FromBig(new(big.Rat).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil)))}
	got, want := replyPair(overflow, false, 0)
	if got.Code != http.StatusInternalServerError || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("unencodable value: appended %d %s, encoder %d %s", got.Code, got.Body, want.Code, want.Body)
	}
}

// BenchmarkWriteSolveMiss48 is the ruler of the reply render: the n=48
// master-slave reply of a miss (48 nodes, ≈ 190 links), from the result
// to the recorder.
func BenchmarkWriteSolveMiss48(b *testing.B) {
	solver, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		b.Fatal(err)
	}
	res, err := solver.Solve(b.Context(), random48())
	if err != nil {
		b.Fatal(err)
	}
	rec := &solveRecord{}
	b.ReportAllocs()
	for b.Loop() {
		w := httptest.NewRecorder()
		writeSolve(w, rec, res, false, 1234)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
