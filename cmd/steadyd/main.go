// Command steadyd serves the steady-state solver registry over HTTP:
// POST a platform to /v1/solve (or a platform family to /v1/sweep)
// and get certified exact-rational steady-state solutions back, or
// POST a platform plus a scenario to /v1/simulate (a family to
// /v1/simsweep) to replay the reconstructed schedule in simulated
// time, or register a platform under POST /v1/deployments and stream
// telemetry at it to keep a certified schedule continuously re-solved
// as the platform drifts (§5.5 adaptive scheduling; watch epochs on
// GET /v1/deployments/{id}/watch, drive it with cmd/steadyagent). See
// docs/API.md for the endpoint reference.
//
// Usage:
//
//	steadyd                             # listen on :8080 with defaults
//	steadyd -addr :9090 -cache-bound 65536
//	steadyd -max-nodes 32 -solve-timeout 10s -max-inflight 4
//	steadyd -pprof-addr localhost:6060  # profiling on a side listener
//	steadyd -metrics=false              # no /metrics, zero overhead
//
// Several steadyd processes form one horizontally scaled service when
// every one is started with the same -peers list and its own -self:
//
//	steadyd -addr :8081 -self http://127.0.0.1:8081 \
//	        -peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// A consistent-hash ring assigns every (platform, solver) pair an
// owning peer; /v1/solve requests for keys owned elsewhere are
// forwarded one hop to the owner, so the cluster shares one cache
// entry and one in-flight solve per key. GET /v1/cluster shows the
// membership and traffic counters. See docs/ARCHITECTURE.md.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish (up to the shutdown grace period), new connections
// are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/steady/cluster"
	"repro/pkg/steady/control"
	"repro/pkg/steady/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		bound     = flag.Int("cache-bound", 0, "LP-solution cache capacity in entries (0 = default 4096)")
		maxNodes  = flag.Int("max-nodes", 0, "largest accepted platform, in nodes (0 = default)")
		maxEdges  = flag.Int("max-edges", 0, "largest accepted platform, in edges (0 = default)")
		maxSweep  = flag.Int("max-sweep", 0, "largest accepted sweep, in platforms (0 = default)")
		timeout   = flag.Duration("solve-timeout", 0, "per-request deadline: one solve, one simulation with its solve, or one simsweep cell (0 = default 30s)")
		inflight  = flag.Int("max-inflight", 0, "max concurrently running solves and simulations (0 = default)")
		bodyLimit = flag.Int64("max-body", 0, "max request body bytes (0 = default 8 MiB)")
		simTrace  = flag.Int("max-trace-events", 0, "largest event trace a traced /v1/simulate may return (0 = default)")
		grace     = flag.Duration("grace", 15*time.Second, "graceful-shutdown grace period")
		metrics   = flag.Bool("metrics", true, "serve Prometheus metrics on GET /metrics (disable for a zero-overhead server; /metrics then answers 404)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate operator-only address (empty = disabled)")
		queueWait = flag.Duration("queue-wait", 0, "max time a request waits for a solve slot before 503 + Retry-After (0 = default 5s)")

		ctlEpoch    = flag.Duration("control-epoch", 0, "control-plane epoch: how often tracked deployments re-check drift (0 = default 2s)")
		ctlDrift    = flag.Float64("control-drift", 0, "relative forecast change that triggers a deployment re-solve (0 = default 0.1)")
		ctlDeploys  = flag.Int("control-max-deployments", 0, "max tracked deployments (0 = default 1024)")
		ctlWatchers = flag.Int("control-max-watchers", 0, "max /v1/deployments/{id}/watch subscribers per deployment (0 = default 64)")

		peers          = flag.String("peers", "", "comma-separated static cluster peer base URLs, including -self (empty = single-node)")
		self           = flag.String("self", "", "this process's own base URL within -peers (required with -peers)")
		healthInterval = flag.Duration("health-interval", 0, "peer health-probe period (0 = default 1s)")
	)
	flag.Parse()

	var cl *cluster.Cluster
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:           *self,
			Peers:          list,
			HealthInterval: *healthInterval,
		})
		if err != nil {
			log.Fatalf("steadyd: %v", err)
		}
	}

	srv := server.New(server.Config{
		CacheBound:     *bound,
		MaxNodes:       *maxNodes,
		MaxEdges:       *maxEdges,
		MaxSweepJobs:   *maxSweep,
		SolveTimeout:   *timeout,
		MaxInFlight:    *inflight,
		MaxBodyBytes:   *bodyLimit,
		MaxTraceEvents: *simTrace,
		QueueWait:      *queueWait,

		DisableMetrics: !*metrics,
		Cluster:        cl,
		Control: control.Config{
			Epoch:          *ctlEpoch,
			DriftThreshold: *ctlDrift,
			MaxDeployments: *ctlDeploys,
			MaxWatchers:    *ctlWatchers,
		},
	})
	defer srv.Close()
	if cl != nil {
		cl.Start()
		log.Printf("steadyd: clustered as %s across %d peers", cl.Self(), len(cl.Health()))
	}
	// The service listener is served by the server's own HTTP/1.1
	// connection loop (Serve), which times a request's header read from
	// its first byte like ReadHeaderTimeout.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("steadyd: %v", err)
	}

	// Profiling never rides on the service listener: -pprof-addr binds
	// a second, operator-only server, typically on localhost.
	if *pprofAddr != "" {
		ps := &http.Server{
			Addr:              *pprofAddr,
			Handler:           server.PprofMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("steadyd: pprof on %s", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("steadyd: pprof: %v", err)
			}
		}()
		defer ps.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("steadyd: shutting down (grace %v)", *grace)
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("steadyd: shutdown: %v", err)
		}
	}()

	log.Printf("steadyd: listening on %s", ln.Addr())
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("steadyd: %v", err)
	}
	<-done
	st := srv.Cache().Stats()
	log.Printf("steadyd: bye (%d solves, %d cache hits)", st.Solves, st.Hits)
}
