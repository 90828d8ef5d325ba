package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/steady/obs"
)

// ForwardedHeader marks a request that was already forwarded once by
// a peer. A receiving peer never forwards such a request again — it
// serves it locally whatever its ring says — so a request crosses the
// cluster at most one hop and routing loops are impossible even while
// peers disagree about membership.
const ForwardedHeader = "X-Steady-Forwarded"

// ServedByHeader names the peer whose cache/solver actually produced
// a forwarded response, for observability on the client side.
const ServedByHeader = "X-Steady-Served-By"

// healthTimeout bounds one health probe.
const healthTimeout = time.Second

// kickGap spaces the probe rounds Heard asks for: a peer that calls in
// nonstop while refusing its probes, or a client naming it in
// ForwardedHeader, would otherwise have it dialled back to back.
const kickGap = 10 * time.Millisecond

// Config describes one peer's view of the cluster. Self and Peers are
// base URLs ("http://10.0.0.1:8080"); Peers must include Self.
type Config struct {
	// Self is this process's own base URL, used to recognize keys it
	// owns. Required.
	Self string
	// Peers is the static membership list, including Self. Every peer
	// must be configured with the same list (order and duplicates do
	// not matter — the ring sorts and deduplicates).
	Peers []string
	// HealthInterval is the period of the background peer health
	// check; 0 = 1s. Health is probed with GET <peer>/v1/cluster. It is
	// the fallback: a down peer that calls this one is probed at once
	// (see Heard).
	HealthInterval time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Self == "" {
		return c, fmt.Errorf("cluster: Config.Self is required")
	}
	if _, err := parsePeerURL(c.Self); err != nil {
		return c, fmt.Errorf("cluster: bad self URL %q: %w", c.Self, err)
	}
	inPeers := false
	for _, p := range c.Peers {
		if p == "" {
			continue // the ring skips it too
		}
		if _, err := parsePeerURL(p); err != nil {
			return c, fmt.Errorf("cluster: bad peer URL %q: %w", p, err)
		}
		if p == c.Self {
			inPeers = true
		}
	}
	if !inPeers {
		return c, fmt.Errorf("cluster: peer list %v does not contain self %q", c.Peers, c.Self)
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	return c, nil
}

// parsePeerURL parses a peer's base URL, which must be plain http with
// a host: "localhost:8081" parses as scheme "localhost" and no host,
// and a cluster of such peers would reach none of them. Userinfo, a
// query and a fragment are refused too: no peer call would send them;
// and so is a host no request could name in its Host header.
func parsePeerURL(s string) (*url.URL, error) {
	u, err := url.Parse(s)
	switch {
	case err != nil:
		return nil, err
	case u.Scheme != "http":
		return nil, fmt.Errorf("scheme %q is not http", u.Scheme)
	case u.Host == "":
		return nil, fmt.Errorf("no host")
	case u.User != nil:
		return nil, fmt.Errorf("userinfo is not sent to peers")
	case u.RawQuery != "" || u.ForceQuery:
		return nil, fmt.Errorf("a query is not sent to peers")
	case strings.Contains(s, "#"): // "http://b#" leaves u.Fragment empty
		return nil, fmt.Errorf("a fragment is not sent to peers")
	}
	if _, err := writtenHost(strings.TrimSuffix(u.Host, ":")); err != nil {
		return nil, err
	}
	return u, nil
}

// PeerStatus is one peer's health as seen by this process, reported
// by Health and rendered in /v1/cluster.
type PeerStatus struct {
	Peer    string `json:"peer"`
	Self    bool   `json:"self,omitempty"`
	Healthy bool   `json:"healthy"`
}

// Stats is a snapshot of the cluster counters, rendered in
// /v1/cluster.
type Stats struct {
	// Forwards counts requests this peer forwarded to an owner;
	// ForwardErrors the forwards that failed and fell back to a local
	// solve. ForwardedServed counts requests this peer served that
	// arrived already forwarded (it was the owner).
	Forwards        int64 `json:"forwards"`
	ForwardErrors   int64 `json:"forward_errors"`
	ForwardedServed int64 `json:"forwarded_served"`
	// BasisShips is always 0: peers no longer ship warm bases, because
	// a solve primed by another request's basis could answer another
	// optimal vertex than a cold one.
	//
	// Deprecated: nothing sets it; it stays for readers of the field.
	BasisShips int64 `json:"basis_ships"`
	// HealthChecks counts completed probe rounds, ticked or kicked by
	// Heard.
	HealthChecks int64 `json:"health_checks"`
}

// Cluster is one peer's runtime view: the ring, the health table, and
// a pool of keep-alive connections to every other peer, at most 128
// per peer and none kept idle past 90 s. A peer call — forward, basis
// fetch or health probe — writes its request and reads the reply on
// the calling goroutine, on a pooled connection whose deadline bounds
// the call, and a call on a reused connection that fails before any
// reply byte is sent once more on a new one. Every peer call names its
// caller in ForwardedHeader, so a peer that calls in while marked down
// is probed at once (Heard); the health interval is the fallback.
// Construct with New, start health probing with Start, and Close when
// done. All methods are safe for concurrent use.
type Cluster struct {
	cfg   Config
	full  *Ring
	peers map[string]*peer // every configured peer but self; fixed by New

	mu   sync.RWMutex
	down map[string]bool
	live *Ring // full.Without(down), rebuilt on health transitions

	// watch is the number of down peers plus the probe rounds running:
	// while it is 0, Heard has nothing to do. rounds is the second
	// term alone. kick holds one pending probe round of the down peers
	// for the health loop, however many calls asked for it.
	watch  atomic.Int32
	rounds atomic.Int32
	kick   chan struct{}

	forwards        atomic.Int64
	forwardErrs     atomic.Int64
	forwardedServed atomic.Int64
	healthChecks    atomic.Int64

	peerUp  *obs.GaugeVec
	obsOnce sync.Once
	// replyHeads counts the readers of every peer's reply heads, once
	// SetObs has run.
	replyHeads atomic.Pointer[headPaths]

	// ctx ends at Close, cutting a probe in flight short.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// New builds a Cluster from cfg. It does not start the health loop —
// call Start — so tests can drive health transitions deterministically
// with MarkPeer.
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Every peer builds the ring with DefaultVirtualNodes: a key has one
	// owner only while all peers build the same ring.
	full := NewRing(cfg.Peers, DefaultVirtualNodes)
	c := &Cluster{
		cfg:   cfg,
		full:  full,
		peers: map[string]*peer{},
		live:  full,
		down:  map[string]bool{},
		kick:  make(chan struct{}, 1),
	}
	c.ctx, c.stop = context.WithCancel(context.Background())
	for _, p := range cfg.Peers {
		if p != "" && p != cfg.Self {
			u, _ := parsePeerURL(p) // withDefaults checked every URL
			pp := newPeer(u)
			pp.heads = &c.replyHeads
			c.peers[p] = pp
		}
	}
	return c, nil
}

// SetObs registers the steady_cluster_* families. The cluster's own
// atomics stay the source of truth (so /v1/cluster works with metrics
// disabled); the registry reads them through CounterFunc/GaugeFunc.
// pkg/steady/server calls it with the server's registry. Only the
// first non-nil registry wins.
func (c *Cluster) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obsOnce.Do(func() { c.registerObs(reg) })
}

func (c *Cluster) registerObs(reg *obs.Registry) {
	reg.CounterFunc("steady_cluster_forwards_total",
		"Requests forwarded to their owning peer.",
		func() float64 { return float64(c.forwards.Load()) })
	reg.CounterFunc("steady_cluster_forward_errors_total",
		"Forwards that failed and fell back to a local solve.",
		func() float64 { return float64(c.forwardErrs.Load()) })
	reg.CounterFunc("steady_cluster_forwarded_served_total",
		"Requests served locally that arrived already forwarded by a peer.",
		func() float64 { return float64(c.forwardedServed.Load()) })
	reg.CounterFunc("steady_cluster_health_checks_total",
		"Completed peer health-probe rounds.",
		func() float64 { return float64(c.healthChecks.Load()) })
	reg.GaugeFunc("steady_cluster_ring_size",
		"Virtual nodes on the live ring (healthy peers x virtual-node count).",
		func() float64 { return float64(c.ring().Size()) })
	reg.GaugeFunc("steady_cluster_peers",
		"Configured cluster peers.",
		func() float64 { return float64(len(c.full.Peers())) })
	reg.GaugeFunc("steady_cluster_peers_healthy",
		"Peers currently considered healthy (self included).",
		func() float64 { return float64(len(c.ring().Peers())) })
	paths := reg.CounterVec("steady_cluster_reply_head_decode_total",
		"Peer reply heads by the reader that took them: the one-pass scanner of the plain spelling, or net/http's ReadResponse.", "path")
	c.replyHeads.Store(&headPaths{scan: paths.With("scan"), strict: paths.With("strict")})
	c.peerUp = reg.GaugeVec("steady_cluster_peer_up",
		"1 when the labeled peer answered its last health probe, else 0.", "peer")
	for _, p := range c.full.Peers() {
		c.peerUp.With(p).Set(1)
	}
}

// Self returns this peer's own base URL.
func (c *Cluster) Self() string { return c.cfg.Self }

// RingSize returns the live ring's virtual-node count (healthy peers
// times VirtualNodes); it shrinks while peers are down.
func (c *Cluster) RingSize() int { return c.ring().Size() }

// VirtualNodes returns the per-peer virtual-node count.
func (c *Cluster) VirtualNodes() int { return c.full.VirtualNodes() }

// ring returns the current live ring (healthy peers only).
func (c *Cluster) ring() *Ring {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// Owner returns the healthy peer owning key. Self is always healthy
// from its own point of view, so Owner never returns "".
func (c *Cluster) Owner(key string) string { return c.ring().Owner(key) }

// MarkPeer records a health transition for peer. The health loop calls
// it after every probe; the forwarding path calls it on transport
// errors so a crashed owner stops attracting forwards before the next
// probe. Marking self has no effect — a peer never excludes itself.
func (c *Cluster) MarkPeer(peer string, healthy bool) {
	if peer == c.cfg.Self {
		return
	}
	c.mu.Lock()
	changed := c.down[peer] == healthy
	if healthy {
		delete(c.down, peer)
	} else {
		c.down[peer] = true
	}
	if changed {
		c.live = c.full.Without(c.down)
		if healthy {
			c.watch.Add(-1)
		} else {
			c.watch.Add(1)
		}
	}
	c.mu.Unlock()
	if changed {
		v := 0.0
		if healthy {
			v = 1.0
		}
		c.peerUp.With(peer).Set(v)
	}
}

// Heard notes a call from peer, the value of its ForwardedHeader.
// Evidence that a peer marked down is alive schedules an immediate
// probe round of the down peers on the health loop; so does a call
// heard while a round runs, which may have probed its caller before
// the caller was ready. Repeated calls coalesce into one pending
// round, and only a probe brings a peer back: a call never marks one
// healthy. Self, "" and a URL that is not a configured peer probe
// nothing. With no peer down and no round running it costs one atomic
// load.
func (c *Cluster) Heard(peer string) {
	if c.watch.Load() == 0 {
		return
	}
	if _, ok := c.peers[peer]; !ok {
		return // self, "", or not a peer
	}
	if c.rounds.Load() == 0 {
		c.mu.RLock()
		down := c.down[peer]
		c.mu.RUnlock()
		if !down {
			return
		}
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Health returns every configured peer's current status, sorted by
// peer URL.
func (c *Cluster) Health() []PeerStatus {
	c.mu.RLock()
	defer c.mu.RUnlock()
	peers := c.full.Peers()
	out := make([]PeerStatus, 0, len(peers))
	for _, p := range peers {
		out = append(out, PeerStatus{Peer: p, Self: p == c.cfg.Self, Healthy: !c.down[p]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Forwards:        c.forwards.Load(),
		ForwardErrors:   c.forwardErrs.Load(),
		ForwardedServed: c.forwardedServed.Load(),
		HealthChecks:    c.healthChecks.Load(),
	}
}

// NoteForwardedServed records that this peer served a request that
// arrived already forwarded (pkg/steady/server calls it when it sees
// ForwardedHeader).
func (c *Cluster) NoteForwardedServed() { c.forwardedServed.Add(1) }

// ShouldForward reports whether a request for key should be forwarded,
// and to which peer: the key must be owned by a healthy peer other
// than self, and the request must not itself be a forward (callers
// check ForwardedHeader before asking).
func (c *Cluster) ShouldForward(key string) (owner string, ok bool) {
	owner = c.Owner(key)
	return owner, owner != "" && owner != c.cfg.Self
}

// Forward replays a request body against the owning peer, marking it
// as forwarded so the owner cannot forward again. It returns the
// owner's raw response; the caller relays status, headers, and body
// verbatim. The owner's 4xx verdicts and its 504 are relayed, not
// retried: a bad request is bad everywhere, and a solve that ran out of
// its deadline on the owner would run out of it again here. Any other
// failure returns an error, so the caller falls back to a local solve
// and the client never sees a cluster-internal 5xx: a transport error
// additionally marks the peer unhealthy (the ring rebalances
// immediately), while another 5xx answer just counts as a forward error
// (the peer is alive — saturated or broken — so it keeps its ring
// positions and its health is left to the probe loop).
//
// deadline bounds the call and the reading of the reply's body; ctx
// cancels both. A stale pooled connection is retried on a new one and
// never condemns the peer.
func (c *Cluster) Forward(ctx context.Context, owner, path, contentType string, body []byte, deadline time.Time) (*http.Response, error) {
	c.forwards.Add(1)
	p := c.peers[owner]
	if p == nil {
		c.forwardErrs.Add(1)
		return nil, fmt.Errorf("cluster: %q is not a peer", owner)
	}
	resp, err := p.do(ctx, &call{method: http.MethodPost, path: path, contentType: contentType, forwarded: c.cfg.Self}, body, deadline)
	if err != nil {
		c.forwardErrs.Add(1)
		// Only transport-level failure condemns the peer, and only while
		// the caller still waits: a call its caller ended says nothing
		// about the owner.
		if ctx.Err() == nil {
			c.MarkPeer(owner, false)
		}
		return nil, err
	}
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		c.forwardErrs.Add(1)
		return nil, fmt.Errorf("cluster: peer %s answered %s", owner, resp.Status)
	}
	return resp, nil
}

// Start launches the background health loop: at once and then every
// HealthInterval it probes every peer but self with GET
// <peer>/v1/cluster and feeds the verdicts to MarkPeer; between ticks
// it probes the down peers whenever Heard asks. Call Close to stop it.
// Start after the service listener is open, so that a peer this one
// probes can probe it back.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.HealthInterval)
		defer t.Stop()
		c.probeAll(false)
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-t.C:
				c.probeAll(false)
			case <-c.kick:
				c.probeAll(true)
				select { // later kicks wait in the slot
				case <-c.ctx.Done():
					return
				case <-time.After(kickGap):
				}
			}
		}
	}()
}

// probeAll probes every peer but self, or with downOnly the peers
// marked down; a round with nobody to probe is not one.
func (c *Cluster) probeAll(downOnly bool) {
	if c.ctx.Err() != nil {
		return
	}
	var names []string
	c.mu.RLock()
	for name := range c.peers {
		if !downOnly || c.down[name] {
			names = append(names, name)
		}
	}
	c.mu.RUnlock()
	if len(names) == 0 {
		return
	}
	c.watch.Add(1)
	c.rounds.Add(1)
	for _, name := range names {
		if healthy := c.probe(name, c.peers[name]); c.ctx.Err() == nil {
			c.MarkPeer(name, healthy)
		}
	}
	c.rounds.Add(-1)
	c.watch.Add(-1)
	c.healthChecks.Add(1)
}

// probe closes the connections to p that sat idle past the idle
// timeout, then reports whether p answers GET /v1/cluster with 200 and
// the whole body its head announced: a peer that cuts its reply short
// is as down as one that sends none. A panic on the way — reading what p sent, say — is recovered, logged and
// taken for no answer: the health loop has no caller to recover it, and
// the other peers are still probed.
func (c *Cluster) probe(name string, p *peer) (healthy bool) {
	defer func() {
		if v := recover(); v != nil {
			log.Printf("cluster: health probe of %s panicked: %v\n%s", name, v, debug.Stack())
			healthy = false
		}
	}()
	p.closeExpired()
	resp, err := p.do(c.ctx, &call{method: http.MethodGet, path: "/v1/cluster", forwarded: c.cfg.Self}, nil, time.Now().Add(healthTimeout))
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK
}

// Close stops the health loop, cutting a probe in flight short, and
// closes the idle peer connections; a connection still in use is closed
// when its call ends.
func (c *Cluster) Close() {
	c.stop()
	c.wg.Wait()
	for _, p := range c.peers {
		p.close()
	}
}
