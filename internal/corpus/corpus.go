// Package corpus names the platforms and problems the tests and rulers
// hold the solvers to: deterministic cases of the shape steadyd serves,
// each under a stable name that a test failure, a log line or a later
// change can quote. No production code reads it.
//
// A name is problem/n<nodes>/<sparse|dense>/c<max cost>/s<seed>, with
// /send-or-receive appended under that port model: sparse platforms
// have as many extra links as nodes, dense ones twice as many.
package corpus

import (
	"fmt"
	"math/rand"

	"repro/pkg/steady/platform"
)

// Case is one problem on one platform.
type Case struct {
	Name     string
	Problem  string
	Model    platform.PortModel
	Targets  []string // node names; set for the problems that take targets
	Platform *platform.Platform
}

// Served is the served-size slice: the RandomConnected family bench/'s
// cold_solve draws from (node weights up to 5, 15 % forwarders), at
// n = 24 and 48, sparse and dense, costs up to 5 and up to 97, seeds 1
// and 2. On each platform it poses master-slave under both port models,
// and scatter and multicast-sum to three targets; broadcast and reduce,
// whose LPs grow as targets × edges, only at n = 24. short keeps the
// n = 24 cases. The cases on one platform share it.
func Served(short bool) []Case {
	var out []Case
	for _, n := range []int{24, 48} {
		if short && n > 24 {
			continue
		}
		for _, density := range []string{"sparse", "dense"} {
			extra := n
			if density == "dense" {
				extra = 2 * n
			}
			for _, maxC := range []int64{5, 97} {
				for seed := int64(1); seed <= 2; seed++ {
					p := platform.RandomConnected(rand.New(rand.NewSource(seed)), n, extra, 5, maxC, 0.15)
					at := fmt.Sprintf("n%d/%s/c%d/s%d", n, density, maxC, seed)
					out = append(out, servedCases(at, p)...)
				}
			}
		}
	}
	return out
}

// servedCases are the problems Served poses on p, named at at.
func servedCases(at string, p *platform.Platform) []Case {
	n := p.NumNodes()
	targets := []string{p.Name(1), p.Name(n / 2), p.Name(n - 1)}
	cases := []Case{
		{Problem: "masterslave"},
		{Problem: "masterslave", Model: platform.SendOrReceive},
		{Problem: "scatter", Targets: targets},
		{Problem: "multicast-sum", Targets: targets},
	}
	if n <= 24 {
		cases = append(cases, Case{Problem: "broadcast"}, Case{Problem: "reduce"})
	}
	for i := range cases {
		c := &cases[i]
		c.Name, c.Platform = c.Problem+"/"+at, p
		if c.Model == platform.SendOrReceive {
			c.Name += "/" + c.Model.String()
		}
	}
	return cases
}
