package platform

// Tests of a platform's flat storage (see Platform): the edge lists it
// hands out cannot be written through, AddEdge keeps every list right
// on any platform, Clone and Reverse fill theirs in one pass to what
// AddEdge would build, and nothing per node or per edge is a pointer
// but inside a rat.Rat.

import (
	"reflect"
	"testing"

	"repro/pkg/steady/rat"
)

// listsOf copies every node's out- and in-list, nil when empty.
func listsOf(p *Platform) (out, in [][]int) {
	for i := range p.NumNodes() {
		out = append(out, append([]int(nil), p.OutEdges(i)...))
		in = append(in, append([]int(nil), p.InEdges(i)...))
	}
	return out, in
}

// wantLists are the lists read off p's edges: each node's edges in
// ascending order.
func wantLists(p *Platform) (out, in [][]int) {
	out, in = make([][]int, p.NumNodes()), make([][]int, p.NumNodes())
	for e, ed := range p.Edges() {
		out[ed.From] = append(out[ed.From], e)
		in[ed.To] = append(in[ed.To], e)
	}
	return out, in
}

func checkLists(t *testing.T, what string, p *Platform) {
	t.Helper()
	out, in := listsOf(p)
	wantOut, wantIn := wantLists(p)
	if !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(in, wantIn) {
		t.Fatalf("%s: lists out %v in %v, its edges give out %v in %v", what, out, in, wantOut, wantIn)
	}
}

// rebuilt is p built again by AddNode and AddEdge, its edges reversed
// when flip is set.
func rebuilt(p *Platform, flip bool) *Platform {
	q := New()
	for i := range p.NumNodes() {
		q.AddNode(p.Name(i), p.Weight(i))
	}
	for _, e := range p.Edges() {
		if flip {
			e.From, e.To = e.To, e.From
		}
		q.AddEdge(e.From, e.To, e.C)
	}
	return q
}

func storagePlatforms(t *testing.T) map[string]*Platform {
	decoded, err := DecodeJSON(compact(t, random48()))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Platform{
		"decoded": decoded, "built": random48(), "figure 1": Figure1(), "figure 2": Figure2(),
		"reversed": Figure2().Reverse(),
	}
}

// TestEdgeListAppendCopies: appending to a list OutEdges or InEdges
// returns copies it; it never writes the list of the node after.
func TestEdgeListAppendCopies(t *testing.T) {
	for name, p := range storagePlatforms(t) {
		out, in := listsOf(p)
		for i := range p.NumNodes() {
			_ = append(p.OutEdges(i), -1)
			_ = append(p.InEdges(i), -1)
		}
		if gotOut, gotIn := listsOf(p); !reflect.DeepEqual(gotOut, out) || !reflect.DeepEqual(gotIn, in) {
			t.Fatalf("%s: an append to one node's list wrote another's", name)
		}
		checkLists(t, name, p)
	}
}

// TestAddEdgeKeepsListsRight: edges added after a decode or a build —
// from and to the first node, the last, one added after, and the
// middle — land at the end of their nodes' lists and move no other
// node's list.
func TestAddEdgeKeepsListsRight(t *testing.T) {
	for name, p := range storagePlatforms(t) {
		n := p.NumNodes()
		extra := p.AddNode("extra", WInt(2))
		for _, e := range [][2]int{{0, n - 1}, {n - 1, 0}, {extra, 0}, {n / 2, extra}, {0, n / 2}, {n - 1, extra}} {
			p.AddEdge(e[0], e[1], rat.FromInt(3))
			checkLists(t, name, p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestCloneReverseMatchRebuild: Clone and Reverse, which copy and swap
// the lists, give the platform an AddEdge rebuild gives — the same
// names, weights, edges and lists — and share nothing a later AddEdge
// on either writes.
func TestCloneReverseMatchRebuild(t *testing.T) {
	for name, p := range storagePlatforms(t) {
		for _, tc := range []struct {
			op        string
			got, want *Platform
		}{
			{"Clone", p.Clone(), rebuilt(p, false)},
			{"Reverse", p.Reverse(), rebuilt(p, true)},
		} {
			if tc.got.String() != tc.want.String() {
				t.Fatalf("%s %s:\n%s want\n%s", name, tc.op, tc.got, tc.want)
			}
			gotOut, gotIn := listsOf(tc.got)
			wantOut, wantIn := listsOf(tc.want)
			if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotIn, wantIn) {
				t.Fatalf("%s %s: lists out %v in %v, rebuilt out %v in %v", name, tc.op, gotOut, gotIn, wantOut, wantIn)
			}
			before := p.String()
			out, in := listsOf(p)
			tc.got.AddNode("another", WInf())
			tc.got.AddEdge(0, tc.got.NumNodes()-1, rat.One())
			checkLists(t, name+" "+tc.op, tc.got)
			if gotOut, gotIn := listsOf(p); p.String() != before || !reflect.DeepEqual(gotOut, out) || !reflect.DeepEqual(gotIn, in) {
				t.Fatalf("%s: an AddEdge on its %s changed it", name, tc.op)
			}
		}
	}
}

// TestPlatformStorageHoldsNoPointers: every per-node and per-edge slice
// of a Platform holds elements with no pointer outside a rat.Rat (the
// weights' and the costs' big.Rat, nil unless a value leaves int64), and
// the one string is the name block: the collector follows a handful of
// pointers per platform, not one per node or edge.
func TestPlatformStorageHoldsNoPointers(t *testing.T) {
	ratType := reflect.TypeFor[rat.Rat]()
	var free func(reflect.Type) bool // pointerFree, with rat.Rat let through
	free = func(t reflect.Type) bool {
		switch {
		case t == ratType:
			return true
		case t.Kind() == reflect.Struct:
			for i := range t.NumField() {
				if !free(t.Field(i).Type) {
					return false
				}
			}
			return true
		case t.Kind() == reflect.Array:
			return free(t.Elem())
		}
		return pointerFree(t)
	}
	strs := 0
	pt := reflect.TypeFor[Platform]()
	for i := range pt.NumField() {
		f := pt.Field(i)
		switch f.Type.Kind() {
		case reflect.String:
			strs++
		case reflect.Slice:
			if !free(f.Type.Elem()) {
				t.Errorf("Platform.%s is %v: it holds a pointer per element", f.Name, f.Type)
			}
		default:
			t.Errorf("Platform.%s is %v, neither a slice nor the name block", f.Name, f.Type)
		}
	}
	if strs != 1 {
		t.Errorf("Platform has %d strings, want the one name block", strs)
	}
}
