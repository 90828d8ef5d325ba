package platform

// White-box tests of DecodeJSON's two readers: the plain-spelling scanner
// in front of the encoding/json decoder, and the graph builder behind
// both.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/pkg/steady/rat"
)

func indented(tb testing.TB, p *Platform) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

func compact(tb testing.TB, p *Platform) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(indented(tb, p))); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

func random48() *Platform {
	return RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
}

const edgesFirst = `{"edges":[{"c":"1/2","to":"B","from":"A"},{"from":"B","to":"A","c":"4/2"}],"nodes":[{"w":"inf","name":"A"},{"name":"B","w":"3"}]}`

// invalidPlatforms are the rows of TestReadJSONInvalidInputs and of the
// server's TestSolveInvalidPlatforms: plain spellings of platforms that
// build refuses, so both readers run on each.
var invalidPlatforms = []string{
	`{"nodes":[{"name":"A","w":"0"}],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"-3"}],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"fast"}],"edges":[]}`,
	`{"nodes":[{"name":"","w":"1"}],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"1"},{"name":"A","w":"2"}],"edges":[]}`,
	`{"nodes":[],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"0"}]}`,
	`{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"-1"}]}`,
	`{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"-1/2"}]}`,
	`{"nodes":[{"name":"A","w":"1"},{"name":"B","w":"1"}],"edges":[{"from":"A","to":"B","c":"slow"}]}`,
	`{"nodes":[{"name":"A","w":"1"}],"edges":[{"from":"A","to":"A","c":"1"}]}`,
	`{"nodes":[{"name":"A","w":"1"}],"edges":[{"from":"A","to":"B","c":"1"}]}`,
}

// plainOddities are unusual, but plain: the scanner reads them.
var plainOddities = []string{
	edgesFirst,
	`{}`,
	`{"nodes":[{"name":"A","w":"1"}]}`,
	`{"edges":[]}`,
	`{"nodes":[{}],"edges":[{}]}`,
	`{"nodes":[{"w":"1"},{"name":"B"}]}`,
	`{"nodes":[{"name":"Pé→1","w":"1.5"},{"name":"B","w":"+2"}],"edges":[{"from":"Pé→1","to":"B","c":"010/3"}]}`,
	" \r\n\t{ \"nodes\" : [ { \"name\" : \"A\" , \"w\" : \"1\" } ] , \"edges\" : [ ] } \n",
}

// declined are documents the scanner must leave to the decoder — which
// accepts most of them: encoding/json folds key case, skips keys it
// does not know, keeps the last of a duplicate, reads null as absent
// and stops after the first value.
var declined = []string{
	`{"Nodes":[{"name":"A","w":"1"}],"edges":[]}`,
	`{"nodes":[{"Name":"A","w":"1"}],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"1","rack":7}],"edges":[]}`,
	`{"nodes":[{"name":"A","w":"1"}],"edges":[],"comment":{"by":["x"]}}`,
	`{"nodes":[{"name":"B","w":"1"}],"nodes":[{"name":"A","w":"1"}]}`,
	`{"nodes":[{"name":"B","name":"A","w":"1"}]}`,
	`{"nodes":[{"name":"A","w":"1"}],"edges":null}`,
	`{"nodes":null}`,
	`{"nodes":[null]}`,
	`{"nodes":[{"name":null,"w":"1"}]}`,
	`{"nodes":[{"name":"\u0041","w":"1"}]}`,
	`{"nodes":[{"name":"A\\","w":"1"}]}`,
	"{\"nodes\":[{\"name\":\"A\x1f\",\"w\":\"1\"}]}",
	"{\"nodes\":[{\"name\":\"A\xff\",\"w\":\"1\"}]}",
	`{"nodes":[{"name":"A","w":1}]}`,
	`{"nodes":[{"name":"A","w":"1"}]} {"nodes":[]}`,
	`{"nodes":[{"name":"A","w":"1"}]} garbage`,
	`{"nodes":[{"name":"A","w":"1"}]}]`,
	`{"nodes":[{"name":"A","w":"1"},]}`,
	`{"nodes":[{"name":"A","w":"1"}],}`,
	`{"nodes":{"name":"A","w":"1"}}`,
	`[{"name":"A","w":"1"}]`,
	`null`,
	`"nodes"`,
	``,
	"\xef\xbb\xbf" + `{"nodes":[{"name":"A","w":"1"}]}`,
}

// decodeOnly is ReadJSON as it was before the scanner: the decoder,
// then the checks.
func decodeOnly(doc string) (*Platform, error) {
	var jp jsonPlatform
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&jp); err != nil {
		return nil, err
	}
	sc := new(scratch)
	return sc.build(sc.spell(&jp))
}

// scanPlatform is the scanner's reading of doc in the decoder's types.
func scanPlatform(doc string) (jp jsonPlatform, ok bool) {
	sc := new(scratch)
	if !sc.scan(doc) {
		return jp, false
	}
	for _, n := range sc.nodes {
		jp.Nodes = append(jp.Nodes, jsonNode{Name: n[0].In(doc), W: n[1].In(doc)})
	}
	for _, e := range sc.edges {
		jp.Edges = append(jp.Edges, jsonEdge{From: e[0].In(doc), To: e[1].In(doc), C: e[2].In(doc)})
	}
	return jp, true
}

// checkAdjacency holds p's adjacency lists to the ones AddEdge builds
// for the same edges.
func checkAdjacency(t *testing.T, p *Platform, doc string) {
	t.Helper()
	ref := rebuilt(p, false)
	for i := 0; i < p.NumNodes(); i++ {
		if !slices.Equal(p.OutEdges(i), ref.OutEdges(i)) || !slices.Equal(p.InEdges(i), ref.InEdges(i)) {
			t.Fatalf("node %d: out %v in %v, AddEdge builds out %v in %v\ndoc: %q",
				i, p.OutEdges(i), p.InEdges(i), ref.OutEdges(i), ref.InEdges(i), doc)
		}
	}
}

// scanAgainstDecoder is the property that holds the scanner to the
// decoder it stands in front of: whatever it reads, the decoder reads
// as the same nodes and edges in the same order — so build sees the
// same input and the platform, or the refusal, is the same — and
// ReadJSON answers what the decoder alone would have, whichever reader
// ran. It reports whether the scanner took the document.
func scanAgainstDecoder(t *testing.T, doc string) bool {
	t.Helper()
	want, wantErr := decodeOnly(doc)
	got, gotErr := ReadJSON(strings.NewReader(doc))
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("ReadJSON: %v, the decoder alone: %v\ndoc: %q", gotErr, wantErr, doc)
	case wantErr != nil:
		if strings.TrimPrefix(gotErr.Error(), "platform: decode: ") != wantErr.Error() {
			t.Fatalf("ReadJSON: %v, the decoder alone: %v\ndoc: %q", gotErr, wantErr, doc)
		}
	default:
		if got.String() != want.String() {
			t.Fatalf("ReadJSON built\n%v the decoder alone\n%v\ndoc: %q", got, want, doc)
		}
		checkAdjacency(t, got, doc)
	}

	scanned, ok := scanPlatform(doc)
	if !ok {
		return false // no opinion
	}
	var decoded jsonPlatform
	if err := json.NewDecoder(strings.NewReader(doc)).Decode(&decoded); err != nil {
		t.Fatalf("the scanner read what the decoder refuses: %v\ndoc: %q", err, doc)
	}
	// slices.Equal: an absent array and an empty one are the same platform.
	if !slices.Equal(scanned.Nodes, decoded.Nodes) || !slices.Equal(scanned.Edges, decoded.Edges) {
		t.Fatalf("scanned %+v\ndecoded %+v\ndoc: %q", scanned, decoded, doc)
	}
	return true
}

func FuzzReadJSONScan(f *testing.F) {
	// A small platform cut at every byte in both spellings, the figures
	// whole. (The figures cut at every byte are 4 400 seeds: most of a
	// ten-second run would go to running them once.)
	small := RandomConnected(rand.New(rand.NewSource(7)), 4, 2, 5, 5, 0.3)
	for _, doc := range []string{compact(f, small), indented(f, small)} {
		for cut := range len(doc) + 1 {
			f.Add([]byte(doc[:cut]))
		}
	}
	for _, p := range []*Platform{Figure1(), Figure2()} {
		f.Add([]byte(compact(f, p)))
		f.Add([]byte(indented(f, p)))
	}
	for _, doc := range slices.Concat(invalidPlatforms, plainOddities, declined) {
		f.Add([]byte(doc))
	}
	// Names that are prefixes of each other, for the name index; a large
	// document, then a small one that reuses its pooled scratch — nothing
	// past the small one's lengths may be read; a duplicate name, with
	// the edges that name it read first.
	f.Add([]byte(`{"nodes":[{"name":"P1","w":"1"},{"name":"P10","w":"2"},{"name":"P100","w":"3"},{"name":"P1000000001","w":"1"},{"name":"P1000000002","w":"1"}],` +
		`"edges":[{"from":"P100","to":"P1","c":"1"},{"from":"P1","to":"P10","c":"2"},{"from":"P10","to":"P100","c":"1/3"},{"from":"P1000000001","to":"P1000000002","c":"1"}]}`))
	f.Add([]byte(compact(f, random48())))
	f.Add([]byte(`{"nodes":[{"name":"N1","w":"1"}],"edges":[]}`))
	f.Add([]byte(`{"edges":[{"from":"A","to":"B","c":"1"},{"from":"B","to":"A","c":"1"}],"nodes":[{"name":"A","w":"1"},{"name":"B","w":"2"},{"name":"A","w":"3"}]}`))
	f.Fuzz(func(t *testing.T, doc []byte) { scanAgainstDecoder(t, string(doc)) })
}

// TestReadJSONReaders pins which reader takes what: every in-repo
// producer's spelling is scanned (or the fast path could go unused
// without a test noticing), and each spelling encoding/json reads
// differently from its bytes is declined.
func TestReadJSONReaders(t *testing.T) {
	for _, p := range []*Platform{Figure1(), Figure2(), random48()} {
		for _, doc := range []string{compact(t, p), indented(t, p)} {
			if !scanAgainstDecoder(t, doc) {
				t.Errorf("the scanner declined a producer's spelling: %.60q…", doc)
			}
		}
	}
	for _, doc := range slices.Concat(invalidPlatforms, plainOddities) {
		if !scanAgainstDecoder(t, doc) {
			t.Errorf("the scanner declined a plain document: %q", doc)
		}
	}
	for _, doc := range declined {
		if scanAgainstDecoder(t, doc) {
			t.Errorf("the scanner took %q", doc)
		}
	}
}

// TestReadJSONAdjacencyIsNotShared: the adjacency lists a decoded
// platform hands out have no spare capacity, though they share one
// array — an edge added afterwards must grow its own two lists and
// touch no other.
func TestReadJSONAdjacencyIsNotShared(t *testing.T) {
	p, err := ReadJSON(strings.NewReader(compact(t, random48())))
	if err != nil {
		t.Fatal(err)
	}
	before := p.Clone()
	for i := 0; i < p.NumNodes(); i++ {
		if out, in := p.OutEdges(i), p.InEdges(i); cap(out) != len(out) || cap(in) != len(in) {
			t.Fatalf("node %d: out len %d cap %d, in len %d cap %d", i, len(out), cap(out), len(in), cap(in))
		}
	}
	for i := 0; i+1 < p.NumNodes(); i++ {
		before.AddEdge(i, i+1, rat.One())
		p.AddEdge(i, i+1, rat.One())
	}
	if p.String() != before.String() {
		t.Fatal("edges added to a decoded platform differ from edges added to its clone")
	}
	checkAdjacency(t, p, "random48 + a chain")
}

// BenchmarkReadJSON48 is the ruler of platform decoding, on the n=48
// platform in both spellings: compact (4.3 KB) is what every /v1/solve
// body carries — json.Marshal compacts SolveRequest.Platform — and
// indented (8.7 KB) is what WriteJSON and platgen write, and what
// bench/'s platform.decode_us replays.
func BenchmarkReadJSON48(b *testing.B) {
	p := random48()
	for _, sp := range []struct {
		name string
		doc  string
	}{{"compact", compact(b, p)}, {"indented", indented(b, p)}} {
		b.Run(sp.name, func(b *testing.B) {
			doc := []byte(sp.doc)
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReadJSON(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
