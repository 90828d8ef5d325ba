// Server example: start the steadyd HTTP service in-process and
// drive it as a client would — list solvers, solve the paper's
// Figure 1 platform twice (the second hits the sharded LP-solution
// cache), stream a small sweep, and read the service stats.
//
//	go run ./examples/server
//
// Against a separately running daemon (`go run ./cmd/steadyd`), the
// same requests work with curl; see docs/API.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

func main() {
	// Start the service on a loopback port, as cmd/steadyd would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{})
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()
	fmt.Println("steadyd serving on", base)

	// 1. Discover the registered problems.
	var solvers server.SolversResponse
	getJSON(base+"/v1/solvers", &solvers)
	fmt.Printf("\n%d registered problems:\n", len(solvers.Problems))
	for _, s := range solvers.Problems {
		fmt.Printf("  %-16s %s\n", s.Problem, s.Description)
	}

	// 2. Solve Figure 1 twice: an LP solve, then a cache hit.
	var buf bytes.Buffer
	if err := platform.Figure1().WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	req := server.SolveRequest{Problem: "masterslave", Root: "P1", Platform: buf.Bytes()}
	fmt.Println("\nPOST /v1/solve (Figure 1, masterslave, root P1):")
	for i := 0; i < 2; i++ {
		var res server.SolveResponse
		postJSON(base+"/v1/solve", req, &res)
		fmt.Printf("  ntask(G) = %s (%.4f), cache_hit=%v, %dus\n",
			res.Throughput, res.Value, res.CacheHit, res.ElapsedMicros)
	}

	// 3. Stream a sweep over 8 random platforms as NDJSON.
	sweep := server.SweepRequest{
		Problem:   "masterslave",
		Generator: &server.Generator{Count: 8, Seed: 1},
		Format:    "ndjson",
	}
	body, _ := json.Marshal(sweep)
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPOST /v1/sweep (8 random platforms), streamed records:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Job      string `json:"job"`
			Tput     string `json:"throughput"`
			CacheHit bool   `json:"cache_hit"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s throughput=%-6s cache_hit=%v\n", rec.Job, rec.Tput, rec.CacheHit)
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// 4. Read the service counters.
	var stats server.StatsResponse
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("\nstats: %d solves, %d cache hits (rate %.2f), %d cached entries in %d shards\n",
		stats.Cache.Solves, stats.Cache.Hits, stats.Cache.HitRate,
		stats.Cache.Entries, stats.Cache.Shards)
}

func getJSON(url string, dst any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(resp, dst)
}

func postJSON(url string, body, dst any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	decode(resp, dst)
}

func decode(resp *http.Response, dst any) {
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s: %s", resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		log.Fatal(err)
	}
}
