package steady_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// fingerprintFmt is the Fingerprint every committed digest (goldens,
// ring ownership in cluster_smoke.sh, the bench oracle) was produced
// by; it stays here as the reference the strconv version must equal.
func fingerprintFmt(p *platform.Platform) string {
	h := sha256.New()
	fmt.Fprintf(h, "steady/v1 %d %d\n", p.NumNodes(), p.NumEdges())
	for i := 0; i < p.NumNodes(); i++ {
		fmt.Fprintf(h, "n %s %s\n", p.Name(i), p.Weight(i))
	}
	for e := 0; e < p.NumEdges(); e++ {
		ed := p.Edge(e)
		fmt.Fprintf(h, "e %d %d %s\n", ed.From, ed.To, ed.C)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oddPlatform has what the generators never produce: names with
// spaces, UTF-8 and a newline, forwarder-only nodes, fractional and
// negative-free but beyond-int64 rationals, and no edges into a node.
func oddPlatform() *platform.Platform {
	p := platform.New()
	p.AddNode("head node", platform.W(rat.New(7, 3)))
	p.AddNode("nœud-β 節点", platform.WInf())
	p.AddNode("n\n2", platform.W(rat.MustParse("123456789012345678901234567890/7")))
	p.AddNode("", platform.W(rat.MustParse("340282366920938463463374607431768211456")))
	p.AddEdge(0, 1, rat.New(1, 1<<40))
	p.AddEdge(1, 2, rat.MustParse("3/98765432109876543210987654321"))
	p.AddEdge(2, 0, rat.FromInt(1<<62))
	return p
}

func TestFingerprintMatchesFmtReference(t *testing.T) {
	cases := map[string]*platform.Platform{
		"figure1": platform.Figure1(),
		"figure2": platform.Figure2(),
		"odd":     oddPlatform(),
		"empty":   platform.New(),
	}
	for _, n := range []int{2, 16, 48, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(n)))
			cases[fmt.Sprintf("random n=%d seed=%d", n, seed)] = platform.RandomConnected(rng, n, n, 5, 5, 0.15)
		}
	}
	for name, p := range cases {
		if got, want := steady.Fingerprint(p), fingerprintFmt(p); got != want {
			t.Errorf("%s: Fingerprint = %s, fmt reference = %s", name, got, want)
		}
	}
}

// TestFingerprintAllocations: the platform keeps its canonical hash
// (the bound on computing it is platform's own test), so Fingerprint
// of an unchanged platform allocates nothing after the first call.
func TestFingerprintAllocations(t *testing.T) {
	p := platform.RandomConnected(rand.New(rand.NewSource(48)), 48, 48, 5, 5, 0.15)
	want := steady.Fingerprint(p)
	if allocs := testing.AllocsPerRun(100, func() { steady.Fingerprint(p) }); allocs != 0 {
		t.Fatalf("%.0f allocations per Fingerprint of an unchanged n=48 platform, want 0", allocs)
	}
	if got := steady.Fingerprint(p); got != want || got != fingerprintFmt(p) {
		t.Fatalf("kept Fingerprint %s, want %s", got, fingerprintFmt(p))
	}
}
