package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
)

const (
	deploymentID = "bench"
	// The tracked platform has 10 nodes, not the hot set's 16: the
	// master-slave LP of a 16-node platform has 94 rows, and at 64 rows
	// or more the exact engine refactors on every pivot, so the one
	// warm re-solve in about 1600 whose dual simplex runs to the pivot
	// budget takes 10 s instead of milliseconds (measured; README, known
	// limits). A 10-node platform stays under 64 rows and no regime in
	// 7200 took more than 4 ms.
	controlNodes = 10
	// The daemon checks drift every 2 ms. A re-plan waits for the next
	// tick, a uniform 0..epoch that says nothing about the code; at 2 ms
	// the wait is about a third of the round trip instead of five
	// sixths, and its sampling noise stays inside the metric's bound.
	controlEpoch     = "2ms"
	batchesPerRegime = 100
	// A regime whose epoch has not arrived after its batches keeps
	// posting up to this many more before it is counted as failed.
	extraBatches = 4000
)

// epochEvent is one epoch as it arrived on the watch stream.
type epochEvent struct {
	at time.Time
	ep control.Epoch
}

// driftDriver runs control_drift: one telemetry client posting
// batches back to back against one tracked deployment, one watch
// connection receiving the epochs the daemon publishes in response.
type driftDriver struct {
	spec    *workload
	seed    int64
	c       *client
	base    *platform.Platform
	regimes *regimeGen
	url     string

	events      chan epochEvent
	watchCancel context.CancelFunc
	watchDone   sync.WaitGroup
	lastVersion uint64
}

func newDriftDriver(spec *workload, seed int64) *driftDriver {
	base := platformAt(seed, streamControl, 0, controlNodes)
	return &driftDriver{
		spec:    spec,
		seed:    seed,
		c:       newClient(),
		base:    base,
		regimes: newRegimeGen(seed, base),
		// Never blocks the stream reader: a run publishes a few
		// thousand epochs at most and the poster drains after every
		// batch.
		events: make(chan epochEvent, 1<<14),
	}
}

func (d *driftDriver) route() string { return "POST /v1/deployments/{id}/telemetry" }

func (d *driftDriver) daemonFlags(urls []string) [][]string {
	// Every regime's re-solve leaves an entry in the LP cache. Bounded,
	// the daemon's memory stops growing within the first repetitions
	// and rss_mb does not depend on how many fitted into the run.
	return [][]string{{"-control-epoch", controlEpoch, "-cache-bound", coldCacheBound}}
}

func (d *driftDriver) setup(ctx context.Context, ds []*daemon) error {
	d.url = ds[0].url
	status, _, body, err := d.c.post(ctx, d.url+"/v1/deployments", deploymentBody(deploymentID, d.base))
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("create deployment: status %d, %v: %.200s", status, err, body)
	}
	if err := d.watch(ctx); err != nil {
		return err
	}
	select {
	case ev := <-d.events:
		d.lastVersion = ev.ep.Version
	case <-time.After(5 * time.Second):
		return fmt.Errorf("no epoch on the watch stream 5s after subscribing")
	case <-ctx.Done():
		return ctx.Err()
	}
	warm := &repResult{layer: map[string]float64{}}
	for i := 0; i < d.spec.warmup; i++ {
		if err := d.regime(ctx, warm); err != nil {
			return err
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d failures: %v", warm.failed, warm.notes)
	}
	return nil
}

// watch subscribes to the deployment's SSE stream on a second
// connection and timestamps every epoch as its data line is read.
func (d *driftDriver) watch(ctx context.Context) error {
	wctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, d.url+"/v1/deployments/"+deploymentID+"/watch", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := (&http.Client{}).Do(req) // no timeout: the stream lives as long as the run
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("watch: %s", resp.Status)
	}
	d.watchCancel = cancel
	d.watchDone.Add(1)
	go func() {
		defer d.watchDone.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			ev := epochEvent{at: time.Now()}
			if err := json.Unmarshal(data, &ev.ep); err != nil {
				continue // the version gap it leaves fails the oracle
			}
			select {
			case d.events <- ev:
			case <-wctx.Done():
				return
			}
		}
	}()
	return nil
}

func (d *driftDriver) close() {
	if d.watchCancel != nil {
		d.watchCancel()
		d.watchDone.Wait()
	}
	d.c.hc.CloseIdleConnections()
}

// regime switches every edge to the next regime's costs and posts the
// regime's batches. The re-plan latency runs from just before the
// regime's first POST to the arrival of the first epoch published
// after it.
func (d *driftDriver) regime(ctx context.Context, res *repResult) error {
	body := telemetryBody(d.base, d.regimes.next())
	t0 := time.Now()
	epochs := 0
	for b := 0; b < batchesPerRegime || epochs == 0; b++ {
		if b == batchesPerRegime+extraBatches {
			res.fail("regime produced no epoch")
			break
		}
		t := time.Now()
		status, _, reply, err := d.c.post(ctx, d.url+"/v1/deployments/"+deploymentID+"/telemetry", body)
		res.lat = append(res.lat, micros(time.Since(t)))
		res.ops++
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.fail(fmt.Sprintf("telemetry: %v", err))
		} else if status != http.StatusOK {
			res.fail(fmt.Sprintf("telemetry: status %d: %.120s", status, reply))
		}
		for drained := false; !drained; {
			select {
			case ev := <-d.events:
				if ev.ep.Version <= d.lastVersion {
					res.fail(fmt.Sprintf("epoch version %d after %d", ev.ep.Version, d.lastVersion))
				}
				d.lastVersion = ev.ep.Version
				if ev.ep.Reason != "drift" {
					res.fail(fmt.Sprintf("epoch %d has reason %q", ev.ep.Version, ev.ep.Reason))
				}
				if epochs == 0 {
					res.replan = append(res.replan, micros(ev.at.Sub(t0)))
				}
				epochs++
				res.layer["epochs"]++
				res.layer["pivots"] += float64(ev.ep.Pivots)
				if ev.ep.WarmStarted {
					res.layer["warm"]++
				}
				if ev.ep.CacheHit {
					res.layer["cache_hits"]++
				}
			default:
				drained = true
			}
		}
	}
	res.layer["regimes"]++
	return nil
}

// rep runs the workload's fixed number of regimes, then checks —
// outside the timed loop — that what the daemon published is exact for
// the model it names.
func (d *driftDriver) rep(ctx context.Context, r int, traced bool) (*repResult, error) {
	res := &repResult{layer: map[string]float64{}}
	start := time.Now()
	for i := 0; i < d.spec.repOps; i++ {
		if err := d.regime(ctx, res); err != nil {
			return nil, err
		}
	}
	res.wall = time.Since(start)
	if err := d.checkModel(ctx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkModel rebuilds the platform the current epoch claims to be
// solved on from the deployment's snapshot and solves it cold in
// process: fingerprint and throughput must match. The estimate need
// not have converged to the regime being posted; what is published
// must be exact for the model it names.
func (d *driftDriver) checkModel(ctx context.Context, res *repResult) error {
	res.checked++
	var snap control.Snapshot
	if err := getJSON(ctx, d.c.hc, d.url+"/v1/deployments/"+deploymentID, &snap); err != nil {
		return err
	}
	p, err := modelPlatform(&snap)
	if err != nil {
		res.fail(fmt.Sprintf("snapshot model does not decode: %v", err))
		return nil
	}
	want, err := solveInProcess(ctx, p)
	if err != nil {
		res.fail(fmt.Sprintf("oracle solve of snapshot model: %v", err))
		return nil
	}
	if snap.Epoch == nil || snap.Epoch.Fingerprint != want.fingerprint || snap.Epoch.Throughput != want.throughput {
		res.fail(fmt.Sprintf("epoch is not the exact solution of its model: in-process solve gives %s", want.throughput))
	}
	return nil
}

func (d *driftDriver) check(ctx context.Context) (checked, failed int, notes []string) {
	return 0, 0, nil // this workload's oracle needs the live daemon and runs inside rep
}
