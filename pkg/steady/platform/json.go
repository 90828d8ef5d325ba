package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"

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

// ReadJSON deserializes a platform written by WriteJSON: it reads r to
// its end, into one string, and decodes that with DecodeJSON. A caller
// that already holds the document as a string — the server holds its
// request body as one — calls DecodeJSON and saves the copy.
func ReadJSON(r io.Reader) (*Platform, error) {
	doc, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	return DecodeJSON(doc)
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

// DecodeJSON decodes the first JSON value of doc as a platform. Decoded
// input is data, not code, so every model violation — not just the
// ones Validate can see after the fact — is checked before the graph is
// built and reported as an error wrapping ErrInvalid; DecodeJSON never
// panics on malformed input (pkg/steady/server feeds request bodies
// straight into it).
//
// A document in the plain spelling is read in one pass by scan, any
// other by encoding/json — which also has every verdict, since a
// document scan reads but build refuses is decoded again for its error.
// The platform shares no byte with doc: a caller may hand in a
// substring of a larger document without pinning it.
func DecodeJSON(doc string) (*Platform, error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	if sc.scan(doc) {
		if p, err := sc.build(doc); err == nil {
			return p, nil
		}
	}
	var jp jsonPlatform
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&jp); err != nil {
		return nil, fmt.Errorf("platform: decode: %w", err)
	}
	return sc.build(sc.spell(&jp))
}

// The spans of one node's and one edge's strings, in the order of
// nodeKeys and edgeKeys.
type (
	nodeSpans [2]jsonscan.Span
	edgeSpans [3]jsonscan.Span
)

var (
	nodeKeys = jsonscan.NewKeys("name", "w")
	edgeKeys = jsonscan.NewKeys("from", "to", "c")
)

// scratch is what one decode reads its document into — the spans of
// every node's and edge's strings in document order — and build's name
// index. It holds numbers, never strings, so a pooled scratch pins no
// document and holds nothing the collector scans
// (TestPooledScanScratchHoldsNothing); and it needs no scrubbing, since
// scan, spell and build rewrite each slice from length 0 and read
// nothing past the lengths they leave.
type scratch struct {
	nodes []nodeSpans
	edges []edgeSpans
	slots []int
	words []uint64
	shift uint // 64 - log2(len(slots))
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledSpans keeps the scratch of a very large document out of the
// pool (a served platform is a few hundred spans).
const maxPooledSpans = 1 << 14

func (sc *scratch) release() {
	if cap(sc.nodes)+cap(sc.edges) <= maxPooledSpans {
		scratchPool.Put(sc)
	}
}

// scan reads a platform in its plain spelling in one pass:
//
//	{"nodes":[{"name":"P1","w":"3"},…],"edges":[{"from":"P1","to":"P2","c":"1/2"},…]}
//
// with the keys in either order, JSON whitespace anywhere, and nothing
// but whitespace after the closing brace — what WriteJSON, json.Marshal
// and a hand-written file produce. It is a second reader of the
// language the decoder in DecodeJSON accepts, not a second definition
// of it: on anything else — another key or another case of one
// (encoding/json folds case and skips what it does not know), a
// duplicate key (the last one wins there), a null, a string with an
// escape, a second value — it reports false without an opinion and the
// decoder reads the same bytes. When it reports true the decoder would
// have produced the same nodes and edges in the same order
// (FuzzReadJSONScan).
func (sc *scratch) scan(doc string) bool {
	sc.nodes, sc.edges = sc.nodes[:0], sc.edges[:0]
	c := jsonscan.New(doc)
	return c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "nodes":
			return 1, c.Array(func() bool {
				sc.nodes = append(sc.nodes, nodeSpans{})
				return c.Fields(nodeKeys, sc.nodes[len(sc.nodes)-1][:], nil)
			})
		case "edges":
			return 2, c.Array(func() bool {
				sc.edges = append(sc.edges, edgeSpans{})
				return c.Fields(edgeKeys, sc.edges[len(sc.edges)-1][:], nil)
			})
		}
		return 0, false
	}) && c.End()
}

// spell lays the decoder's strings end to end in one document, with
// sc's spans over it: what the decoder read, in the form build reads.
func (sc *scratch) spell(jp *jsonPlatform) string {
	var doc strings.Builder
	put := func(s string) jsonscan.Span {
		doc.WriteString(s)
		return jsonscan.Span{Lo: doc.Len() - len(s), Hi: doc.Len()}
	}
	sc.nodes, sc.edges = sc.nodes[:0], sc.edges[:0]
	for _, n := range jp.Nodes {
		sc.nodes = append(sc.nodes, nodeSpans{put(n.Name), put(n.W)})
	}
	for _, e := range jp.Edges {
		sc.edges = append(sc.edges, edgeSpans{put(e.From), put(e.To), put(e.C)})
	}
	return doc.String()
}

// build checks the platform sc spans in doc and builds its graph; it is
// the one builder behind both of DecodeJSON's readers. It refuses every
// violation Validate would find — an empty platform, a duplicate name,
// a non-positive cost — and every one a builder method would panic on,
// so what it returns is valid without Validate's second name map
// (TestBuildImpliesValidate). The counts are known before anything is
// built, so the platform's flat storage (see Platform) is filled in one
// pass, each slice sized once: the node ends in one array, the edge
// lists in another, every slice capped so that an AddEdge or AddNode on
// the result copies the slice it grows instead of writing into the one
// after it. The node names are copied into one block of their own: a
// name in doc is a substring of the whole document, and a platform
// lives as long as the cache entry that holds it. Until then the name
// index reads each name through its span in doc.
func (sc *scratch) build(doc string) (*Platform, error) {
	n := len(sc.nodes)
	ends := make([]int, 3*n) // the names', the out-lists' and the in-lists' node ends
	p := &Platform{
		w:       make([]Weight, 0, n),
		edges:   make([]Edge, 0, len(sc.edges)),
		nameEnd: ends[:n:n],
		outEnd:  ends[n : 2*n : 2*n],
		inEnd:   ends[2*n:],
	}
	sc.index(n)
	size := 0 // of all names together
	for k, node := range sc.nodes {
		name, ws := node[0].In(doc), node[1].In(doc)
		if name == "" {
			return nil, fmt.Errorf("%w: node with empty name", ErrInvalid)
		}
		i, slot := sc.find(doc, name)
		if i >= 0 {
			return nil, fmt.Errorf("%w: duplicate node name %q", ErrInvalid, name)
		}
		var w Weight
		if ws == "inf" {
			w = WInf()
		} else {
			v, err := rat.Parse(ws)
			if err != nil {
				return nil, fmt.Errorf("%w: node %s: %v", ErrInvalid, name, err)
			}
			if v.Sign() <= 0 {
				return nil, fmt.Errorf("%w: node %s: weight %s is not positive", ErrInvalid, name, ws)
			}
			w = W(v)
		}
		sc.add(name, k, slot)
		size += len(name)
		p.nameEnd[k] = size
		p.w = append(p.w, w)
	}
	for _, e := range sc.edges {
		fromName, toName, cs := e[0].In(doc), e[1].In(doc), e[2].In(doc)
		from, _ := sc.find(doc, fromName)
		to, _ := sc.find(doc, toName)
		if from < 0 || to < 0 {
			return nil, fmt.Errorf("%w: edge %s->%s references unknown node", ErrInvalid, fromName, toName)
		}
		if from == to {
			return nil, fmt.Errorf("%w: edge %s->%s is a self-loop", ErrInvalid, fromName, toName)
		}
		c, err := rat.Parse(cs)
		if err != nil {
			return nil, fmt.Errorf("%w: edge %s->%s: %v", ErrInvalid, fromName, toName, err)
		}
		if c.Sign() <= 0 {
			return nil, fmt.Errorf("%w: edge %s->%s: cost %s is not positive", ErrInvalid, fromName, toName, cs)
		}
		p.edges = append(p.edges, Edge{From: from, To: to, C: c})
		p.outEnd[from]++ // a degree for now
		p.inEnd[to]++
	}
	if n == 0 { // after the edges, as Validate had it: an edge of an empty platform names an unknown node
		return nil, fmt.Errorf("%w: empty", ErrInvalid)
	}
	var block strings.Builder
	block.Grow(size)
	for _, node := range sc.nodes {
		block.WriteString(node[0].In(doc))
	}
	p.names = block.String()

	// Each degree becomes its node's start, which the edges then move
	// on to its end.
	m := len(p.edges)
	lists := make([]int, 2*m)
	p.out, p.in = lists[:m:m], lists[m:]
	for i, at, bt := 0, 0, 0; i < n; i++ {
		p.outEnd[i], at = at, at+p.outEnd[i]
		p.inEnd[i], bt = bt, bt+p.inEnd[i]
	}
	for i, e := range p.edges {
		p.out[p.outEnd[e.From]] = i
		p.outEnd[e.From]++
		p.in[p.inEnd[e.To]] = i
		p.inEnd[e.To]++
	}
	return p, nil
}

// seed keys the name index's hash, drawn once per process: which names
// share a slot is not something a document can choose.
var seed = maphash.String(maphash.MakeSeed(), "")

// index empties build's name→index map for n names: sc.slots, open
// addressing over node numbers plus one (0 is a free slot), at most
// half full. It holds numbers, not names — the name of node k-1, read
// through its span in the document, is slot k's key, and words[k-1]
// that name's first eight bytes — so it pools with the spans.
func (sc *scratch) index(n int) {
	sc.shift = 61 // 8 slots
	for 1<<(64-sc.shift) < 2*n {
		sc.shift--
	}
	sc.slots = append(sc.slots[:0], make([]int, 1<<(64-sc.shift))...)
	sc.words = sc.words[:0]
}

// add files node i, named name, in the free slot find gave it.
func (sc *scratch) add(name string, i, slot int) {
	sc.slots[slot] = i + 1
	sc.words = append(sc.words, word(name))
}

// find returns the index of the node named name among those filed from
// doc, or -1 and the free slot it would take. The slot is the high bits
// of a multiplicative hash under seed, which every byte of the name
// reaches; a name is a few bytes, and a name of at most eight is
// compared as one word.
func (sc *scratch) find(doc, name string) (i, slot int) {
	const k = 0x9e3779b97f4a7c15
	w := word(name)
	h := seed ^ uint64(len(name)) ^ w
	for rest := name; len(rest) > 8; {
		rest = rest[8:]
		h *= k
		h ^= h>>32 ^ word(rest)
	}
	mask := len(sc.slots) - 1
	for slot = int(h * k >> sc.shift); ; slot = (slot + 1) & mask {
		switch j := sc.slots[slot] - 1; {
		case j < 0:
			return -1, slot
		case sc.words[j] == w:
			if s := sc.nodes[j][0]; s.Hi-s.Lo == len(name) && (len(name) <= 8 || s.In(doc) == name) {
				return j, slot
			}
		}
	}
}

// word packs the first eight bytes of s, or all of a shorter s, into a
// little-endian word.
func word(s string) (w uint64) {
	for i := range min(len(s), 8) {
		w |= uint64(s[i]) << (8 * i)
	}
	return w
}
