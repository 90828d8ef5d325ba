package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// How fast the box is changes under the benchmark. Its vCPUs share
// physical cores, caches and a hypervisor with other tenants: a fixed
// SHA-256 takes 8.1 µs or 10.3 µs depending on the sibling thread, for
// tens of seconds at a time; a cold solve 1.75 ms or 2.15 ms; a
// loopback round trip anything between 150 and 260 µs. Ten runs of one
// commit spread by a fifth of their median, and no statistic of a
// single run removes a state that outlasts the run.
//
// So the benchmark weighs the box while it measures. The reference
// server below is the standard weight: a request whose cost depends on
// nothing in the repository — net/http, encoding/json, SHA-256 and
// math/big from the toolchain, in this file. It runs on the daemons'
// CPUs, the one client sends it a short burst before and after every
// repetition, and the repetition's times are divided by how much
// slower than nominal the bursts around it were. Measured on this box
// (README, "Why times are scaled"): that takes the spread of ten runs'
// medians from 0.19 to 0.05 on hot_hit and from 0.07 to 0.03 on
// cold_solve.

const refFlag = "reference-on"

// refKind is one reference request: the work it asks for, how many
// make a burst, and the burst median all times are scaled to — the
// kind's median on this box at its quietest. Another box or toolchain
// shifts every scaled time by one constant factor, which no
// comparison made there sees.
type refKind struct {
	work      int // math/big accumulations after the decode and the hash
	burst     int
	nominalUs float64
}

var (
	// refLight costs about what a cache hit does: a round trip, a JSON
	// decode of the same body, a hash, a JSON encode.
	refLight = refKind{work: 0, burst: 200, nominalUs: 130}
	// refHeavy adds a millisecond of allocating rational arithmetic,
	// which slows with the box the way an LP solve does.
	refHeavy = refKind{work: 340, burst: 24, nominalUs: 1000}
)

// referenceHandler answers POST /ref?work=N: decode the JSON body,
// hash it, do N rational accumulations, encode the lot.
func referenceHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(body)
		doc["fingerprint"] = hex.EncodeToString(sum[:])
		work, _ := strconv.Atoi(r.URL.Query().Get("work")) // absent: none
		x, acc := big.NewRat(int64(len(body)), 3), new(big.Rat)
		for i := 1; i <= work; i++ {
			acc = new(big.Rat).Add(acc, new(big.Rat).Mul(x, big.NewRat(int64(i), int64(i+7))))
		}
		doc["sum"] = acc.FloatString(6)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(doc) // the client hanging up is its own business
	})
	return mux
}

// serveReference is the whole of the reference server process.
func serveReference(addr string) int {
	fmt.Fprintln(os.Stderr, "bench: reference server:", http.ListenAndServe(addr, referenceHandler()))
	return 1
}

// reference is the running reference server as the client sees it.
type reference struct {
	cmd  *exec.Cmd
	url  string
	c    *client
	body []byte
}

// startReference spawns the reference server on the daemons' CPUs and
// waits until it answers.
func startReference(ctx context.Context, sp *spawner, body []byte) (*reference, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd, err := selfCommand(ctx, "-"+refFlag, addr)
	if err != nil {
		return nil, err
	}
	if err := sp.start(cmd); err != nil {
		return nil, fmt.Errorf("start reference server: %w", err)
	}
	r := &reference{cmd: cmd, url: "http://" + addr + "/ref", c: newClient(), body: body}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if status, _, _, err := r.c.post(ctx, r.url, body); err == nil && status == http.StatusOK {
			return r, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			r.stop()
			return nil, fmt.Errorf("reference server on %s did not come up", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (r *reference) stop() {
	r.c.hc.CloseIdleConnections()
	_ = r.cmd.Process.Kill()
	_ = r.cmd.Wait() // killed by us: the status says nothing
}

// weigh sends one burst of kind and returns how much slower than
// nominal the box served it: the burst's median over the nominal one.
func (r *reference) weigh(ctx context.Context, kind refKind) (float64, error) {
	url := r.url + "?work=" + strconv.Itoa(kind.work)
	lat := make([]float64, kind.burst)
	for i := range lat {
		t0 := time.Now()
		status, _, _, err := r.c.post(ctx, url, r.body)
		lat[i] = micros(time.Since(t0))
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("reference request: status %d, %v", status, err)
		}
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5) / kind.nominalUs, nil
}
