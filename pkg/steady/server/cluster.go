package server

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"repro/pkg/steady/cluster"
)

// ClusterResponse is the body of GET /v1/cluster: this peer's view of
// the membership, ring, and forwarding traffic. Peers also use the
// endpoint as their health probe (any 200 counts), and load tools
// (cmd/steadybench) aggregate the per-node Cache sections into the
// cluster-wide hit rate.
type ClusterResponse struct {
	// Enabled is false on a single-node server (no -peers); every
	// other field is then zero.
	Enabled bool `json:"enabled"`
	// Self is this peer's own base URL.
	Self string `json:"self,omitempty"`
	// VirtualNodes is the per-peer virtual-node count; RingSize the
	// live ring's total virtual nodes (healthy peers x VirtualNodes),
	// which shrinks while peers are down.
	VirtualNodes int `json:"virtual_nodes,omitempty"`
	RingSize     int `json:"ring_size,omitempty"`
	// Peers is this peer's health view of the full membership.
	Peers []cluster.PeerStatus `json:"peers,omitempty"`
	// Counters reports forwarding traffic.
	Counters cluster.Stats `json:"counters"`
	// Cache is this node's LP-solution cache section, duplicated from
	// /v1/stats so cluster-wide hit rates aggregate from one endpoint.
	Cache CacheStatsJSON `json:"cache"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, ClusterResponse{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, ClusterResponse{
		Enabled:      true,
		Self:         s.cluster.Self(),
		VirtualNodes: s.cluster.VirtualNodes(),
		RingSize:     s.cluster.RingSize(),
		Peers:        s.cluster.Health(),
		Counters:     s.cluster.Stats(),
		Cache:        cacheStatsJSON(s.cache.Stats()),
	})
}

// forwardSlack is what a forward's deadline allows past the owner's
// own budget, QueueWait + SolveTimeout, after which the owner has
// answered 503 or 504 at the latest: the hop's dial, write and read,
// and the owner's reading of the body. A forward that outlives it
// finds the owner stuck, not slow.
const forwardSlack = time.Second

// routeSolve decides where a solve-shaped request for key runs. When
// it returns true the response has been written (the request was
// forwarded to the owning peer and its answer relayed verbatim);
// false means "solve locally" — either this peer owns the key, the
// request already crossed the cluster once (the ForwardedHeader
// guard: one hop, never loops), or the forward failed and graceful
// degradation turns the request into a local solve. Every peer is
// expected to run with the same limits, so the owner's budget is this
// peer's own.
func (s *Server) routeSolve(w http.ResponseWriter, r *http.Request, key string, raw []byte) bool {
	if s.cluster == nil {
		return false
	}
	if r.Header.Get(cluster.ForwardedHeader) != "" {
		s.cluster.NoteForwardedServed()
		return false
	}
	owner, ok := s.cluster.ShouldForward(key)
	if !ok {
		return false
	}
	deadline := time.Now().Add(s.cfg.QueueWait + s.cfg.SolveTimeout + forwardSlack)
	resp, err := s.cluster.Forward(r.Context(), owner, r.URL.Path, "application/json", raw, deadline)
	if err != nil {
		// The owner is unreachable or answered a 5xx other than 504:
		// fall back to a local solve. The client never sees a
		// cluster-internal error.
		return false
	}
	defer resp.Body.Close()
	// The reply is read whole into a pooled buffer, sized from the
	// owner's Content-Length, and relayed in one write: io.Copy would
	// allocate a 32 KB copy buffer per forward (statusWriter hides the
	// response's ReadFrom, and net/http's own ReadFrom allocates one as
	// well). Nothing has been written when the read fails, so a reply
	// cut short still becomes a local solve.
	e := encPool.Get().(*encBuf)
	e.buf.Reset()
	if n := resp.ContentLength; n > 0 && n <= maxPooledEncBuf {
		e.buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare before its last read
	}
	if _, err := e.buf.ReadFrom(resp.Body); err != nil {
		return false
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	// Length-framed, as the owner frames its own, so the reply goes
	// out in one write: without a length the connection loop holds it
	// to count it (and net/http, embedding Handler, chunks it).
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.Header().Set(cluster.ServedByHeader, owner)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() <= maxPooledEncBuf {
		encPool.Put(e)
	}
	return true
}
