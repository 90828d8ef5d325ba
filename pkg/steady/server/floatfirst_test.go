package server_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
	"repro/pkg/steady/server"
)

// statsFamily is a sweep family of n structurally identical platforms:
// one random topology, every weight and cost perturbed per member.
func statsFamily(n int) []*platform.Platform {
	base := platform.RandomConnected(rand.New(rand.NewSource(5)), 8, 8, 5, 5, 0)
	out := make([]*platform.Platform, n)
	for step := range out {
		q := platform.New()
		for i := 0; i < base.NumNodes(); i++ {
			w := base.Weight(i)
			if !w.Inf {
				w = platform.W(w.Val.Add(rat.New(int64(step), 103)))
			}
			q.AddNode(base.Name(i), w)
		}
		for _, ed := range base.Edges() {
			q.AddEdge(ed.From, ed.To, ed.C.Add(rat.New(int64(step), 101)))
		}
		out[step] = q
	}
	return out
}

// solveStatsFamily sends the family through /v1/solve of the server at
// url, holds every served throughput to a cold library solve of the
// same platform, and returns the lp section of GET /v1/stats.
func solveStatsFamily(t *testing.T, url string) server.LPStatsJSON {
	t.Helper()
	cold, err := steady.New(steady.Spec{Problem: "masterslave"})
	if err != nil {
		t.Fatal(err)
	}
	for step, q := range statsFamily(3) {
		res := decodeSolve(t, postJSON(t, url+"/v1/solve", server.SolveRequest{
			Problem:  "masterslave",
			Platform: platformJSON(t, q),
		}))
		want, err := cold.Solve(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput != want.Throughput.String() {
			t.Fatalf("step %d: served %q != cold %v", step, res.Throughput, want.Throughput)
		}
	}
	return lpStats(t, url)
}

// lpStats is the lp section of GET /v1/stats of the server at url.
func lpStats(t *testing.T, url string) server.LPStatsJSON {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.LP
}

// TestStatsFloatFirstCounters: every LP solve searches in float64;
// solving a sweep family through /v1/solve must surface the
// float and fallback traffic in the lp section of GET /v1/stats,
// every miss cold and its certificate keeping exact pivots at zero.
func TestStatsFloatFirstCounters(t *testing.T) {
	lp := solveStatsFamily(t, newTestServer(t, server.Config{}).URL)
	if !lp.FloatFirst {
		t.Fatalf("lp.float_first = false: %+v", lp)
	}
	if lp.FloatSolves < 1 || lp.FloatPivots <= 0 {
		t.Fatalf("float-first traffic missing from stats: %+v", lp)
	}
	if lp.WarmSolves != 0 || lp.ColdSolves != 3 {
		t.Fatalf("lp solves = %+v, want 3 cold: no request primes another", lp)
	}
	if lp.ExactFallbacks != 0 {
		t.Fatalf("unexpected exact fallbacks: %+v", lp)
	}
	// Float search and certificate on every miss: the family costs
	// zero exact pivots end to end, and the deprecated repair count
	// stays 0.
	if lp.PivotsTotal != 0 || lp.RepairPivots != 0 {
		t.Fatalf("lp.pivots_total = %d, repair_pivots = %d, want 0: %+v", lp.PivotsTotal, lp.RepairPivots, lp)
	}
}
