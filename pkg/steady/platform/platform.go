// Package platform implements the target architectural model of §2 of
// the paper: a node-weighted, edge-weighted directed graph
// G = (V, E, w, c). Node P_i needs w_i time-steps per computational
// unit (w_i = +inf means a pure forwarder); edge e_ij needs c_ij
// time-steps per data unit. The operation mode is full-overlap,
// single-port for incoming and for outgoing communications.
package platform

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/pkg/steady/rat"
)

// Weight is a node computation weight: time per task. Inf marks a
// node with no computing power that can still forward data.
type Weight struct {
	Val rat.Rat
	Inf bool
}

// W returns a finite weight.
func W(val rat.Rat) Weight { return Weight{Val: val} }

// WInt returns a finite integer weight.
func WInt(v int64) Weight { return Weight{Val: rat.FromInt(v)} }

// WInf returns the infinite (forwarder-only) weight.
func WInf() Weight { return Weight{Inf: true} }

func (w Weight) String() string {
	if w.Inf {
		return "inf"
	}
	return w.Val.String()
}

// Edge is a directed communication link with cost C time-steps per
// data unit (C > 0).
type Edge struct {
	From, To int
	C        rat.Rat
}

// Platform is the heterogeneous target graph. Construct with New,
// AddNode and AddEdge; it is then immutable by convention.
//
// Its storage is a few flat slices and one string, however many nodes
// and edges it has: a platform lives as long as the cache entry that
// holds it, and a slice or a string per node would be one more pointer
// per node for the collector to follow on every cycle. The names lie
// end to end in one block, and node i's name is the substring that
// ends at nameEnd[i]. The adjacency is in compressed rows: node i's
// outgoing edges are out[start:outEnd[i]], from the previous node's end
// (0 for node 0), in ascending edge order, and its incoming ones in the
// same way in in and inEnd.
type Platform struct {
	w       []Weight
	edges   []Edge
	names   string
	nameEnd []int
	out     []int
	outEnd  []int
	in      []int
	inEnd   []int

	// fp caches Fingerprint's hash; AddNode and AddEdge clear it. A
	// platform is read by several goroutines at once (a sweep's jobs, a
	// cached Result's), so fpMu guards it.
	fpMu sync.Mutex
	fp   string
}

// span is node i's stretch of a list whose node ends are ends.
func span(ends []int, i int) (lo, hi int) {
	if i > 0 {
		lo = ends[i-1]
	}
	return lo, ends[i]
}

// New returns an empty platform.
func New() *Platform { return &Platform{} }

// AddNode adds a node and returns its index.
func (p *Platform) AddNode(name string, w Weight) int {
	if !w.Inf && w.Val.Sign() <= 0 {
		panic(fmt.Sprintf("platform: node %s: weight must be positive (w=0 would allow infinite compute rate)", name))
	}
	p.fp = ""
	p.names += name
	p.nameEnd = append(p.nameEnd, len(p.names))
	p.w = append(p.w, w)
	p.outEnd = append(p.outEnd, len(p.out))
	p.inEnd = append(p.inEnd, len(p.in))
	return len(p.w) - 1
}

// AddEdge adds a directed edge from -> to with cost c and returns its
// index. Costs must be positive rationals (an absent edge stands for
// c = +inf). The edge goes at the end of its endpoints' lists, which
// shifts the lists of the nodes after them — O(E), for a platform that
// is built once and read many times — so an OutEdges or InEdges list
// is not to be held across it.
func (p *Platform) AddEdge(from, to int, c rat.Rat) int {
	if from < 0 || from >= len(p.w) || to < 0 || to >= len(p.w) {
		panic("platform: edge endpoint out of range")
	}
	if from == to {
		panic("platform: self loop")
	}
	if c.Sign() <= 0 {
		panic("platform: edge cost must be positive")
	}
	p.fp = ""
	idx := len(p.edges)
	p.edges = append(p.edges, Edge{From: from, To: to, C: c})
	p.out = insertAt(p.out, p.outEnd, from, idx)
	p.in = insertAt(p.in, p.inEnd, to, idx)
	return idx
}

// insertAt puts e at the end of node i's stretch of list and moves
// every later node's end one on.
func insertAt(list, ends []int, i, e int) []int {
	list = slices.Insert(list, ends[i], e)
	for k := i; k < len(ends); k++ {
		ends[k]++
	}
	return list
}

// AddBoth adds edges in both directions with the same cost.
func (p *Platform) AddBoth(a, b int, c rat.Rat) (ab, ba int) {
	return p.AddEdge(a, b, c), p.AddEdge(b, a, c)
}

// NumNodes returns |V|.
func (p *Platform) NumNodes() int { return len(p.w) }

// NumEdges returns |E|.
func (p *Platform) NumEdges() int { return len(p.edges) }

// Name returns node i's name: a substring of the platform's one name
// block, so it allocates nothing.
func (p *Platform) Name(i int) string {
	lo, hi := span(p.nameEnd, i)
	return p.names[lo:hi]
}

// NodeByName returns the index of the named node, or -1.
func (p *Platform) NodeByName(name string) int {
	for i := range p.nameEnd {
		if p.Name(i) == name {
			return i
		}
	}
	return -1
}

// Weight returns node i's computation weight.
func (p *Platform) Weight(i int) Weight { return p.w[i] }

// CanCompute reports whether node i has finite computing power.
func (p *Platform) CanCompute(i int) bool { return !p.w[i].Inf }

// Edge returns edge e.
func (p *Platform) Edge(e int) Edge { return p.edges[e] }

// Edges returns all edges (shared slice; do not mutate).
func (p *Platform) Edges() []Edge { return p.edges }

// OutEdges returns the indices of edges leaving node i, in ascending
// order (shared storage, capped: an append copies; do not mutate).
func (p *Platform) OutEdges(i int) []int {
	lo, hi := span(p.outEnd, i)
	return p.out[lo:hi:hi]
}

// InEdges returns the indices of edges entering node i, in ascending
// order (shared storage, capped: an append copies; do not mutate).
func (p *Platform) InEdges(i int) []int {
	lo, hi := span(p.inEnd, i)
	return p.in[lo:hi:hi]
}

// FindEdge returns the first edge from -> to, or -1.
func (p *Platform) FindEdge(from, to int) int {
	for _, e := range p.OutEdges(from) {
		if p.edges[e].To == to {
			return e
		}
	}
	return -1
}

// Clone returns a deep copy. The name block is shared: a string is
// immutable.
func (p *Platform) Clone() *Platform {
	return &Platform{
		w:       slices.Clone(p.w),
		edges:   slices.Clone(p.edges),
		names:   p.names,
		nameEnd: slices.Clone(p.nameEnd),
		out:     slices.Clone(p.out),
		outEnd:  slices.Clone(p.outEnd),
		in:      slices.Clone(p.in),
		inEnd:   slices.Clone(p.inEnd),
	}
}

// Reverse returns the platform with every edge direction flipped
// (used for reduce = broadcast on the reversed graph). Every edge keeps
// its index, so a node's outgoing edges there are its incoming ones
// here, in the same order.
func (p *Platform) Reverse() *Platform {
	q := p.Clone()
	for i, e := range q.edges {
		q.edges[i].From, q.edges[i].To = e.To, e.From
	}
	q.out, q.in = q.in, q.out
	q.outEnd, q.inEnd = q.inEnd, q.outEnd
	return q
}

// Validate checks structural invariants (parallel edges are allowed;
// the model's +inf node weights are allowed). Violations are reported
// as errors wrapping ErrInvalid.
func (p *Platform) Validate() error {
	if len(p.w) == 0 {
		return fmt.Errorf("%w: empty", ErrInvalid)
	}
	seen := make(map[string]bool, len(p.w))
	for i := range p.nameEnd {
		n := p.Name(i)
		if seen[n] {
			return fmt.Errorf("%w: duplicate node name %q", ErrInvalid, n)
		}
		seen[n] = true
	}
	for i, e := range p.edges {
		if e.C.Sign() <= 0 {
			return fmt.Errorf("%w: edge %d has non-positive cost", ErrInvalid, i)
		}
	}
	return nil
}

// ReachableFrom returns the set of nodes reachable from src
// (including src) following edge directions.
func (p *Platform) ReachableFrom(src int) []bool {
	seen := make([]bool, p.NumNodes())
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range p.OutEdges(u) {
			v := p.edges[e].To
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// DepthFrom returns, for each node, the minimum number of hops from
// src (-1 if unreachable). The maximum finite value bounds the number
// of warm-up periods needed to reach steady state (§4.2).
func (p *Platform) DepthFrom(src int) []int {
	depth := make([]int, p.NumNodes())
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range p.OutEdges(u) {
			v := p.edges[e].To
			if depth[v] < 0 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// MaxDepthFrom returns the largest finite depth from src.
func (p *Platform) MaxDepthFrom(src int) int {
	max := 0
	for _, d := range p.DepthFrom(src) {
		if d > max {
			max = d
		}
	}
	return max
}

// ShortestPath returns the minimum-total-cost path from src to dst as
// a list of edge indices (nil if unreachable), using Dijkstra over
// rational edge costs.
func (p *Platform) ShortestPath(src, dst int) []int {
	n := p.NumNodes()
	dist := make([]rat.Rat, n)
	fixed := make([]bool, n)
	has := make([]bool, n)
	from := make([]int, n) // edge used to reach node
	for i := range from {
		from[i] = -1
	}
	has[src] = true
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !has[v] || fixed[v] {
				continue
			}
			if u < 0 || dist[v].Less(dist[u]) {
				u = v
			}
		}
		if u < 0 {
			break
		}
		fixed[u] = true
		if u == dst {
			break
		}
		for _, e := range p.OutEdges(u) {
			v := p.edges[e].To
			nd := dist[u].Add(p.edges[e].C)
			if !has[v] || nd.Less(dist[v]) {
				has[v], dist[v], from[v] = true, nd, e
			}
		}
	}
	if !fixed[dst] {
		return nil
	}
	var path []int
	for v := dst; v != src; {
		e := from[v]
		path = append(path, e)
		v = p.edges[e].From
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// String gives a compact human-readable rendering.
func (p *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "platform %d nodes %d edges\n", p.NumNodes(), p.NumEdges())
	for i, w := range p.w {
		fmt.Fprintf(&b, "  %s w=%s\n", p.Name(i), w)
	}
	for _, e := range p.edges {
		fmt.Fprintf(&b, "  %s -> %s c=%s\n", p.Name(e.From), p.Name(e.To), e.C)
	}
	return b.String()
}

// DOT renders the platform in Graphviz format (for inspecting the
// Figure 1 / Figure 2 style diagrams).
func (p *Platform) DOT() string {
	var b strings.Builder
	b.WriteString("digraph platform {\n")
	for i, w := range p.w {
		n := p.Name(i)
		fmt.Fprintf(&b, "  %q [label=\"%s\\nw=%s\"];\n", n, n, w)
	}
	for _, e := range p.edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s\"];\n",
			p.Name(e.From), p.Name(e.To), e.C)
	}
	b.WriteString("}\n")
	return b.String()
}
