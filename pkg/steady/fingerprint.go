package steady

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"repro/pkg/steady/platform"
)

// fingerprintBufs recycles the buffer the canonical form is written
// into: every memo miss, sweep job and control-plane re-solve
// fingerprints a platform, and the form of an n=48 platform is ≈ 2 KB.
var fingerprintBufs = sync.Pool{New: func() any { return new([]byte) }}

// Fingerprint returns a canonical content hash of the platform: two
// platforms built with the same node names, weights, and edges (in
// the same order) share a fingerprint, regardless of how they were
// constructed. pkg/steady/batch keys its LP-solution cache on
// (Fingerprint, Solver.Name), so the hash covers every input the
// solvers read: node names, node weights, and directed edges with
// their costs. Weights and costs hash via their normalized rational
// rendering, so equal rationals hash equally.
//
// Node order is significant: the built-in solvers address nodes by
// index (Spec.Root == "" means node 0), so platforms that differ only
// by node permutation are distinct solve inputs.
func Fingerprint(p *platform.Platform) string {
	// The canonical form is a header line "steady/v1 <nodes> <edges>",
	// a line "n <name> <weight>" per node and a line
	// "e <from> <to> <cost>" per edge.
	bp := fingerprintBufs.Get().(*[]byte)
	b := append((*bp)[:0], "steady/v1 "...)
	b = strconv.AppendInt(b, int64(p.NumNodes()), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(p.NumEdges()), 10)
	b = append(b, '\n')
	for i := 0; i < p.NumNodes(); i++ {
		b = append(b, "n "...)
		b = append(b, p.Name(i)...)
		b = append(b, ' ')
		if w := p.Weight(i); w.Inf {
			b = append(b, "inf"...)
		} else {
			b, _ = w.Val.AppendText(b) // never fails
		}
		b = append(b, '\n')
	}
	for _, ed := range p.Edges() {
		b = append(b, "e "...)
		b = strconv.AppendInt(b, int64(ed.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(ed.To), 10)
		b = append(b, ' ')
		b, _ = ed.C.AppendText(b)
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	*bp = b
	fingerprintBufs.Put(bp)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
