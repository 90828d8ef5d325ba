package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"time"

	"repro/pkg/steady/cluster"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/server"
)

const (
	hotSetSize = 16 // far below the daemon's 4096-entry cache bound
	hotNodes   = 16
	coldNodes  = 48
	// The cold daemon's cache holds fewer entries than the warm-up
	// inserts, so from the first measured request every miss also
	// evicts, the heap has stopped growing (fresh pages are a trip
	// through the hypervisor) and rss_mb does not depend on how many
	// requests fitted into the run.
	coldCacheBound = "128"
)

// input is one prepared request of a solve workload.
type input struct {
	plat   *platform.Platform
	body   []byte
	want   expected // in-process answer; filled lazily for cold inputs
	target string   // base URL the request is sent to
	direct []byte   // cluster_fwd: the owner's own answer, normalized
}

// sampled is a reply kept aside during a repetition and checked after
// the daemons are gone, so the oracle's solves never share a core with
// the system being timed.
type sampled struct {
	in   input // a copy without the request body, so a repetition's other inputs can be freed
	body []byte
}

// solveDriver runs the three /v1/solve workloads.
type solveDriver struct {
	spec    *workload
	seed    int64
	c       *client
	ds      []*daemon
	hot     []input
	samples []sampled
}

func newSolveDriver(ctx context.Context, spec *workload, seed int64) (*solveDriver, error) {
	d := &solveDriver{spec: spec, seed: seed, c: newClient()}
	if spec.name == "cold_solve" {
		return d, nil
	}
	d.hot = make([]input, hotSetSize)
	for i := range d.hot {
		p := platformAt(seed, streamHot, i, hotNodes)
		want, err := solveInProcess(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("oracle solve of hot platform %d: %w", i, err)
		}
		d.hot[i] = input{plat: p, body: solveBody(p), want: want}
	}
	return d, nil
}

func (d *solveDriver) route() string { return "POST /v1/solve" }

func (d *solveDriver) daemonFlags(urls []string) [][]string {
	flags := make([][]string, len(urls))
	if d.spec.name == "cold_solve" {
		flags[0] = []string{"-cache-bound", coldCacheBound}
	}
	if len(urls) > 1 {
		for i, u := range urls {
			flags[i] = []string{"-peers", strings.Join(urls, ","), "-self", u, "-health-interval", "100ms"}
		}
	}
	return flags
}

// coldInputs draws count distinct platforms starting at index from.
func (d *solveDriver) coldInputs(stream, from, count int) []input {
	ins := make([]input, count)
	for i := range ins {
		p := platformAt(d.seed, stream, from+i, coldNodes)
		ins[i] = input{plat: p, body: solveBody(p), target: d.ds[0].url}
	}
	return ins
}

func (d *solveDriver) setup(ctx context.Context, ds []*daemon) error {
	d.ds = ds
	var warm []input
	switch d.spec.name {
	case "cold_solve":
		warm = d.coldInputs(streamColdWarmup, 0, d.spec.warmup)
	case "cluster_fwd":
		if err := d.routeHotSet(ctx); err != nil {
			return err
		}
	default:
		for i := range d.hot {
			d.hot[i].target = ds[0].url
		}
	}
	for i := 0; i < d.spec.warmup; i++ {
		var in *input
		if warm != nil {
			in = &warm[i]
		} else {
			in = &d.hot[i%hotSetSize]
		}
		status, _, _, err := d.c.post(ctx, in.target+"/v1/solve", in.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d, %v", i, status, err)
		}
	}
	return nil
}

// routeHotSet waits for the ring to see both peers, then finds for
// every hot platform the peer that does not own it — requests go
// there, so every one is forwarded exactly one hop — and records the
// owner's own answer for the byte-equality check.
func (d *solveDriver) routeHotSet(ctx context.Context) error {
	for _, dm := range d.ds {
		for {
			var cr server.ClusterResponse
			if err := getJSON(ctx, d.c.hc, dm.url+"/v1/cluster", &cr); err != nil {
				return err
			}
			healthy := 0
			for _, p := range cr.Peers {
				if p.Healthy {
					healthy++
				}
			}
			if healthy == len(d.ds) {
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	for i := range d.hot {
		in := &d.hot[i]
		status, hdr, _, err := d.c.post(ctx, d.ds[0].url+"/v1/solve", in.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("routing hot platform %d: status %d, %v", i, status, err)
		}
		owner := d.ds[0].url
		in.target = d.ds[1].url
		if by := hdr.Get(cluster.ServedByHeader); by != "" {
			owner, in.target = by, d.ds[0].url
		}
		status, hdr, body, err := d.c.post(ctx, owner+"/v1/solve", in.body)
		if err != nil || status != http.StatusOK || hdr.Get(cluster.ServedByHeader) != "" {
			return fmt.Errorf("hot platform %d: %s is not its owner (status %d, %v)", i, owner, status, err)
		}
		in.direct = normalizeReply(body)
	}
	return nil
}

var volatileFields = regexp.MustCompile(`"(elapsed_us|cache_hit)": [a-z0-9]+`)

// normalizeReply blanks the two fields of a /v1/solve reply that
// legitimately differ between a direct and a forwarded answer.
func normalizeReply(body []byte) []byte {
	return volatileFields.ReplaceAll(body, []byte(`"$1": _`))
}

var (
	hitTrue  = []byte(`"cache_hit": true`)
	hitFalse = []byte(`"cache_hit": false`)
)

// rep sends the workload's fixed number of requests back to back.
func (d *solveDriver) rep(ctx context.Context, r int, traced bool) (*repResult, error) {
	n := d.spec.repOps
	var cold []input
	if d.spec.name == "cold_solve" {
		stream := streamCold
		if traced {
			stream = streamColdTraced
		}
		cold = d.coldInputs(stream, r*n, n)
	}
	wantHit, wantFwd := hitTrue, d.spec.name == "cluster_fwd"
	if cold != nil {
		wantHit = hitFalse
	}
	res := &repResult{ops: n, lat: make([]float64, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		var in *input
		if cold != nil {
			in = &cold[i]
		} else {
			in = &d.hot[i%hotSetSize]
		}
		t0 := time.Now()
		status, hdr, body, err := d.c.post(ctx, in.target+"/v1/solve", in.body)
		res.lat = append(res.lat, micros(time.Since(t0)))
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			res.fail(fmt.Sprintf("request %d: %v", i, err))
		case status != http.StatusOK:
			res.fail(fmt.Sprintf("request %d: status %d: %.120s", i, status, body))
		case !bytes.Contains(body, wantHit):
			res.fail(fmt.Sprintf("request %d: want %s", i, wantHit))
		case wantFwd && hdr.Get(cluster.ServedByHeader) == "":
			res.fail(fmt.Sprintf("request %d: not forwarded (no %s)", i, cluster.ServedByHeader))
		case i%d.spec.oracleEvery == 0:
			kept := *in
			kept.body = nil
			d.samples = append(d.samples, sampled{in: kept, body: append([]byte(nil), body...)})
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// directRep sends one repetition of the cluster workload's requests
// straight to their owners. The traced run subtracts its median from
// the forwarded one to price the hop.
func (d *solveDriver) directRep(ctx context.Context) ([]float64, error) {
	lat := make([]float64, 0, d.spec.repOps)
	for i := 0; i < d.spec.repOps; i++ {
		in := &d.hot[i%hotSetSize]
		owner := d.ds[0].url
		if in.target == owner {
			owner = d.ds[1].url
		}
		t0 := time.Now()
		status, _, _, err := d.c.post(ctx, owner+"/v1/solve", in.body)
		lat = append(lat, micros(time.Since(t0)))
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("direct request %d: status %d, %v", i, status, err)
		}
	}
	return lat, nil
}

func (d *solveDriver) close() { d.c.hc.CloseIdleConnections() }

// check is the exactness oracle: every sampled reply must carry the
// throughput and fingerprint of an in-process certified solve of the
// same platform, and a forwarded reply must equal the owner's own.
func (d *solveDriver) check(ctx context.Context) (checked, failed int, notes []string) {
	bad := func(format string, args ...any) {
		failed++
		if len(notes) < 5 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range d.samples {
		checked++
		if s.in.want == (expected{}) {
			var err error
			if s.in.want, err = solveInProcess(ctx, s.in.plat); err != nil {
				bad("oracle solve: %v", err)
				continue
			}
		}
		var got server.SolveResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			bad("undecodable reply: %v", err)
			continue
		}
		if got.Fingerprint != s.in.want.fingerprint || got.Throughput != s.in.want.throughput {
			bad("reply %s/%s, in-process solve %s/%s", got.Throughput, got.Fingerprint[:12], s.in.want.throughput, s.in.want.fingerprint[:12])
			continue
		}
		if s.in.direct != nil && !bytes.Equal(normalizeReply(s.body), s.in.direct) {
			bad("forwarded reply for %s differs from its owner's", got.Fingerprint[:12])
		}
	}
	return checked, failed, notes
}
