package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/jsonscan"
	"repro/pkg/steady/rat"
)

// ErrInvalid marks a platform that violates the model's structural
// invariants: non-positive node weights or edge costs, self-loops,
// edges naming unknown nodes, duplicate node names, or an empty
// graph. ReadJSON and Validate wrap it with detail — match with
// errors.Is. The builder methods (AddNode, AddEdge) still panic on
// the same violations: they guard programmer-constructed platforms,
// while ErrInvalid guards decoded input, which is data, not code.
var ErrInvalid = errors.New("platform: invalid")

// jsonPlatform is the serialized form used by the cmd tools.
type jsonPlatform struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name string `json:"name"`
	W    string `json:"w"` // rational or "inf"
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	C    string `json:"c"`
}

// WriteJSON serializes the platform.
func (p *Platform) WriteJSON(w io.Writer) error {
	jp := jsonPlatform{}
	for i := 0; i < p.NumNodes(); i++ {
		jp.Nodes = append(jp.Nodes, jsonNode{Name: p.Name(i), W: p.Weight(i).String()})
	}
	for _, e := range p.Edges() {
		jp.Edges = append(jp.Edges, jsonEdge{
			From: p.Name(e.From), To: p.Name(e.To), C: e.C.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jp)
}

// ReadJSON deserializes a platform written by WriteJSON. Decoded
// input is data, not code, so every model violation — not just the
// ones Validate can see after the fact — is checked before the graph
// is built and reported as an error wrapping ErrInvalid; ReadJSON
// never panics on malformed input (pkg/steady/server feeds request
// bodies straight into it).
//
// It reads r to its end, then the first JSON value of what it read:
// through scanPlatform when the document is in the plain spelling,
// through encoding/json otherwise — which also has every verdict, since
// a document the scanner reads but build refuses is decoded again for
// its error.
func ReadJSON(r io.Reader) (*Platform, error) {
	doc, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	if jp, ok := scanPlatform(doc); ok {
		if p, err := build(jp); err == nil {
			return p, nil
		}
	}
	var jp jsonPlatform
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&jp); err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	return build(jp)
}

// readAll reads r to EOF into one string. A reader that knows how much
// it holds (bytes.Reader, strings.Reader, bytes.Buffer — what every
// in-memory caller passes) is read in one allocation.
func readAll(r io.Reader) (string, error) {
	var doc strings.Builder
	if sized, ok := r.(interface{ Len() int }); ok {
		doc.Grow(sized.Len())
	}
	_, err := io.Copy(&doc, r)
	return doc.String(), err
}

// scanPlatform reads a platform in its plain spelling in one pass:
//
//	{"nodes":[{"name":"P1","w":"3"},…],"edges":[{"from":"P1","to":"P2","c":"1/2"},…]}
//
// with the keys in either order, JSON whitespace anywhere, and nothing
// but whitespace after the closing brace — what WriteJSON, json.Marshal
// and a hand-written file produce. It is a second reader of the
// language the decoder in ReadJSON accepts, not a second definition of
// it: on anything else — another key or another case of one
// (encoding/json folds case and skips what it does not know), a
// duplicate key (the last one wins there), a null, a string with an
// escape, a second value — it reports false without an opinion and the
// decoder reads the same bytes. When it reports true the decoder would
// have produced the same nodes and edges in the same order
// (FuzzReadJSONScan).
//
// The strings it returns are substrings of doc.
func scanPlatform(doc string) (jp jsonPlatform, ok bool) {
	c := jsonscan.New(doc)
	ok = c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "nodes":
			return 1, c.Array(func() bool {
				jp.Nodes = append(jp.Nodes, jsonNode{})
				return scanNode(c, &jp.Nodes[len(jp.Nodes)-1])
			})
		case "edges":
			return 2, c.Array(func() bool {
				jp.Edges = append(jp.Edges, jsonEdge{})
				return scanEdge(c, &jp.Edges[len(jp.Edges)-1])
			})
		}
		return 0, false
	}) && c.End()
	return jp, ok
}

func scanNode(c *jsonscan.Cursor, n *jsonNode) bool {
	return c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "name":
			bit = 1
			n.Name, ok = c.Str()
		case "w":
			bit = 2
			n.W, ok = c.Str()
		}
		return bit, ok
	})
}

func scanEdge(c *jsonscan.Cursor, e *jsonEdge) bool {
	return c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "from":
			bit = 1
			e.From, ok = c.Str()
		case "to":
			bit = 2
			e.To, ok = c.Str()
		case "c":
			bit = 4
			e.C, ok = c.Str()
		}
		return bit, ok
	})
}

// build validates a decoded platform and builds its graph. The counts
// are known before anything is built, so every slice is sized once and
// the per-node adjacency lists are carved from one array — each with no
// spare capacity, so an AddEdge on the result copies the list it grows
// instead of writing into its neighbour's. Node names are
// cloned: a name handed in by scanPlatform is a substring of the whole
// document, and a platform lives as long as the cache entry that
// holds it.
func build(jp jsonPlatform) (*Platform, error) {
	n := len(jp.Nodes)
	p := &Platform{
		names: make([]string, 0, n),
		w:     make([]Weight, 0, n),
		edges: make([]Edge, 0, len(jp.Edges)),
		out:   make([][]int, n),
		in:    make([][]int, n),
	}
	idx := make(map[string]int, n)
	for _, node := range jp.Nodes {
		if node.Name == "" {
			return nil, fmt.Errorf("%w: node with empty name", ErrInvalid)
		}
		if _, dup := idx[node.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate node name %q", ErrInvalid, node.Name)
		}
		var w Weight
		if node.W == "inf" {
			w = WInf()
		} else {
			v, err := rat.Parse(node.W)
			if err != nil {
				return nil, fmt.Errorf("%w: node %s: %v", ErrInvalid, node.Name, err)
			}
			if v.Sign() <= 0 {
				return nil, fmt.Errorf("%w: node %s: weight %s is not positive", ErrInvalid, node.Name, node.W)
			}
			w = W(v)
		}
		name := strings.Clone(node.Name)
		idx[name] = len(p.names)
		p.names = append(p.names, name)
		p.w = append(p.w, w)
	}
	degree := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range jp.Edges {
		from, okF := idx[e.From]
		to, okT := idx[e.To]
		if !okF || !okT {
			return nil, fmt.Errorf("%w: edge %s->%s references unknown node", ErrInvalid, e.From, e.To)
		}
		if from == to {
			return nil, fmt.Errorf("%w: edge %s->%s is a self-loop", ErrInvalid, e.From, e.To)
		}
		c, err := rat.Parse(e.C)
		if err != nil {
			return nil, fmt.Errorf("%w: edge %s->%s: %v", ErrInvalid, e.From, e.To, err)
		}
		if c.Sign() <= 0 {
			return nil, fmt.Errorf("%w: edge %s->%s: cost %s is not positive", ErrInvalid, e.From, e.To, e.C)
		}
		p.edges = append(p.edges, Edge{From: from, To: to, C: c})
		degree[from]++
		degree[n+to]++
	}
	lists := make([]int, 2*len(p.edges))
	carve := func(d int) (list []int) {
		if d > 0 { // else nil, as AddNode leaves it
			list, lists = lists[:0:d], lists[d:]
		}
		return list
	}
	for i := range p.out {
		p.out[i] = carve(degree[i])
	}
	for i := range p.in {
		p.in[i] = carve(degree[n+i])
	}
	for i, e := range p.edges {
		p.out[e.From] = append(p.out[e.From], i)
		p.in[e.To] = append(p.in[e.To], i)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
