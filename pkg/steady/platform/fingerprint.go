package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
)

// fingerprintBufs recycles the buffer the canonical form is written
// into: the form of an n=48 platform is ≈ 2 KB.
var fingerprintBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodings counts the canonical forms every platform has written: a
// served solve writes one, and the test that says so watches this.
var encodings atomic.Int64

// Fingerprint returns a canonical content hash of the platform: two
// platforms built with the same node names, weights, and edges (in
// the same order) share a fingerprint, regardless of how they were
// constructed. The hash covers every input the solvers read: node
// names, node weights, and directed edges with their costs. Weights and
// costs hash via their normalized rational rendering, so equal
// rationals hash equally. Node order is significant.
//
// The platform computes it once and keeps it until AddNode or AddEdge
// changes what it covers: a served solve reads it for its cache key and
// again for its Result.
func (p *Platform) Fingerprint() string {
	p.fpMu.Lock()
	defer p.fpMu.Unlock()
	if p.fp == "" {
		p.fp = p.canonicalHash()
	}
	return p.fp
}

// canonicalHash is the hex SHA-256 of the canonical form: a header line
// "steady/v1 <nodes> <edges>", a line "n <name> <weight>" per node and
// a line "e <from> <to> <cost>" per edge.
func (p *Platform) canonicalHash() string {
	encodings.Add(1)
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
