package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/pkg/steady"
	"repro/pkg/steady/control"
	"repro/pkg/steady/platform"
)

// This file is the HTTP face of the online scheduling control plane
// (pkg/steady/control): deployment CRUD, telemetry ingestion, and the
// /v1/deployments/{id}/watch SSE stream of schedule epochs.

// DeploymentRequest is the body of POST /v1/deployments: a deployment
// id plus the same problem/platform fields as POST /v1/solve. Posting
// an existing id atomically replaces that deployment (new nominal
// platform, fresh telemetry series) while its watch subscribers ride
// along; the epoch version keeps counting.
type DeploymentRequest struct {
	// ID names the deployment in URLs and metrics:
	// 1-64 chars from [A-Za-z0-9._-], starting alphanumeric.
	ID string `json:"id"`
	SolveRequest
}

// TelemetryRequest is the body of POST /v1/deployments/{id}/telemetry:
// a batch of cost measurements. The batch is transactional — one
// invalid observation (unknown name, NaN/Inf, non-positive value,
// ambiguous node-and-edge form) rejects the whole batch with 400 and
// no forecaster sees any of it, so a half-applied probe can never
// skew the next re-solve.
type TelemetryRequest struct {
	Observations []control.Observation `json:"observations"`
}

// TelemetryResponse is the body of a successful telemetry post.
type TelemetryResponse struct {
	// Accepted is the number of measurements applied (the whole
	// batch, by the transactional contract).
	Accepted int `json:"accepted"`
}

// DeploymentListResponse is the body of GET /v1/deployments.
type DeploymentListResponse struct {
	Deployments []string `json:"deployments"`
}

// Control returns the server's control-plane manager, for embedders
// that want to drive or inspect deployments in-process (tests, the
// steadyd shell). The server owns its lifecycle: Server.Close closes
// it.
func (s *Server) Control() *control.Manager { return s.manager }

// controlSolve is the control.SolveFunc the server installs: every
// epoch re-solve runs through the same pipeline as a client request
// (identical estimated platforms across deployments or /v1/solve
// requests are one cache entry, MaxInFlight gates the LP, /v1/stats
// counts it). An epoch is a solve of its estimate like any other, so it
// is cached like any other, and no client's reply depends on an epoch
// solved before it.
func (s *Server) controlSolve(ctx context.Context, key string, solver steady.Solver, p *platform.Platform) (*steady.Result, bool, error) {
	return s.solve(ctx, key, solver.Name(), resolved(solver, p))
}

func (s *Server) handleDeploymentCreate(w http.ResponseWriter, r *http.Request) {
	var req DeploymentRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	p, err := decodePlatform(string(req.Platform), s.cfg.MaxNodes, s.cfg.MaxEdges)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	snap, err := s.manager.Create(r.Context(), req.ID, spec, p)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleDeploymentList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, DeploymentListResponse{Deployments: s.manager.List()})
}

func (s *Server) handleDeploymentGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.manager.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleDeploymentDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.manager.Remove(r.PathValue("id")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "removed"})
}

// watchKeepalive is how often an idle watch stream emits an SSE
// comment so intermediaries don't reap the connection.
const watchKeepalive = 15 * time.Second

// handleWatch streams a deployment's epochs as Server-Sent Events:
//
//	id: <version>
//	event: epoch
//	data: <control.Epoch JSON>
//
// A fresh subscriber immediately receives the current epoch. A
// reconnecting client sends the standard Last-Event-ID header (or an
// ?after= query parameter) with the last version it saw: retained
// epochs after it replay in order, and a version that has fallen out
// of the bounded history yields one full epoch marked "resync"
// instead. A client that stops reading for a full buffer is evicted —
// the stream ends and it must reconnect with Last-Event-ID. The
// stream also ends when the deployment is removed or the server shuts
// down; a replace keeps it open, delivering the replacement epoch —
// marked "resync" (no delta) when the new platform's topology differs
// from the old one.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	last, err := watchResume(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	sub, err := s.manager.Watch(r.PathValue("id"), last)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxy buffering defeats SSE
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	keep := time.NewTicker(watchKeepalive)
	defer keep.Stop()
	for {
		select {
		case <-r.Context().Done():
			// Client gone: Close (deferred) deregisters immediately, so
			// a dead stream never counts against MaxWatchers nor
			// lingers until eviction.
			return
		case <-keep.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case ep, open := <-sub.Events():
			if !open {
				// Evicted, removed, or shutting down: end the stream;
				// the client reconnects with Last-Event-ID.
				return
			}
			data, err := json.Marshal(ep)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: epoch\ndata: %s\n\n", ep.Version, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// watchResume extracts the resume version of a watch request: the SSE
// standard Last-Event-ID header, or an ?after= query parameter for
// plain curl use. 0 (or neither) means a fresh subscription.
func watchResume(r *http.Request) (uint64, error) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad resume version %q: %w", v, err)
	}
	return n, nil
}
