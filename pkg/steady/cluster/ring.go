// Package cluster turns a set of steadyd processes into one logical
// solve service: a consistent-hash ring assigns every (Fingerprint,
// solver) cache key an owning peer, non-owners forward solve requests
// to the owner in a single hop, and a peer whose owner is down solves
// the key itself, to the same certified bytes.
//
// The package is deliberately below pkg/steady/server in the import
// graph: the server owns the HTTP handlers (/v1/cluster and the
// forwarding interception), this package owns the ring, the peer
// client, health tracking, and the steady_cluster_* metrics. Nothing
// here imports the server, the batch engine, or internal/ packages.
//
// Degradation is always graceful: a dead owner, a failed forward, or
// a failed basis fetch falls back to a plain local solve. The cluster
// can lose every peer but one and still answer every request — more
// slowly, never with an availability error.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the number of ring positions each peer
// occupies. 64 virtual nodes keep the expected ownership imbalance of
// a small cluster within a few percent while keeping the ring tiny
// (a 16-peer ring is 1024 entries).
const DefaultVirtualNodes = 64

// ringEntry is one virtual node: a position on the 64-bit hash circle
// and the peer that owns it.
type ringEntry struct {
	pos  uint64
	peer string
}

// Ring is an immutable consistent-hash ring over a set of peers.
// Placement is deterministic: the position of every virtual node is a
// pure hash of the peer name and the virtual-node index, so two
// processes given the same peer list build the identical ring and
// agree on every key's owner without coordination. Build one with
// NewRing; derive a degraded view with Without.
type Ring struct {
	entries []ringEntry // sorted by pos
	peers   []string    // sorted, deduplicated
	vnodes  int
}

// NewRing builds a ring over peers with the given virtual-node count
// (<= 0 selects DefaultVirtualNodes). Peer names are deduplicated;
// order does not matter. An empty peer list yields a ring whose Owner
// returns "".
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := map[string]bool{}
	var uniq []string
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq, vnodes: vnodes}
	r.entries = make([]ringEntry, 0, len(uniq)*vnodes)
	for _, p := range uniq {
		for v := 0; v < vnodes; v++ {
			r.entries = append(r.entries, ringEntry{pos: ringHash(fmt.Sprintf("%s#%d", p, v)), peer: p})
		}
	}
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.peer < b.peer // deterministic tie-break on (vanishingly rare) collisions
	})
	return r
}

// ringHash is the ring's placement and lookup hash: 64-bit FNV-1a
// passed through a splitmix64 finalizer. FNV is stable and seedless —
// every process must compute identical positions, which rules out
// maphash — but its raw output clusters on the short, similar strings
// peers and virtual nodes produce; the finalizer spreads those
// clusters over the whole 64-bit circle (TestRingDistribution pins
// the resulting balance).
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	z := h.Sum64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Owner returns the peer owning key: the first virtual node at or
// clockwise of the key's position. Returns "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.entries) == 0 {
		return ""
	}
	pos := ringHash(key)
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].pos >= pos })
	if i == len(r.entries) {
		i = 0
	}
	return r.entries[i].peer
}

// Owners returns up to n distinct peers in ring order starting at the
// key's owner — the owner first, then the peers that would own the key
// if the ones before them disappeared: when the owner is down, the
// next peer in line is the likeliest to have solved the key before the
// last rebalance.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.entries) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.peers) {
		n = len(r.peers)
	}
	pos := ringHash(key)
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].pos >= pos })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for scanned := 0; scanned < len(r.entries) && len(out) < n; scanned++ {
		e := r.entries[(i+scanned)%len(r.entries)]
		if !seen[e.peer] {
			seen[e.peer] = true
			out = append(out, e.peer)
		}
	}
	return out
}

// Without returns the ring over the same peer set minus the named
// peers — the degraded view used while peers are unhealthy. Keys owned
// by surviving peers keep their owner (the consistent-hashing
// property); only the removed peers' keys move, to their ring
// successors.
func (r *Ring) Without(down map[string]bool) *Ring {
	if len(down) == 0 {
		return r
	}
	kept := make([]string, 0, len(r.peers))
	for _, p := range r.peers {
		if !down[p] {
			kept = append(kept, p)
		}
	}
	if len(kept) == len(r.peers) {
		return r
	}
	return NewRing(kept, r.vnodes)
}

// Peers returns the ring's peer set, sorted.
func (r *Ring) Peers() []string { return append([]string(nil), r.peers...) }

// Size returns the number of virtual nodes on the ring.
func (r *Ring) Size() int { return len(r.entries) }

// VirtualNodes returns the per-peer virtual node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }
