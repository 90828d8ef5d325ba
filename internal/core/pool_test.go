package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// drainPools empties every sync.Pool of the process — this package's
// models, lp's forms and engines: a pool drops what it holds across two
// collections, so the solve after them starts on storage no solve has
// used, as in a new process.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// lpOutcome solves m through solveModel, which recycles it as every
// solve path does, and renders everything the Solution says: status,
// objective, SolveInfo, values, duals and the basis.
func lpOutcome(m *lp.Model) (string, error) {
	nCons := m.NumCons()
	sol, err := solveModel(m, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%v %v %+v\nvalues %v\nduals", sol.Status, sol.Objective, sol.Info, sol.Values())
	for i := 0; i < nCons; i++ {
		b.WriteString(" " + sol.Dual(i).String())
	}
	fmt.Fprintf(&b, "\nbasis %v", lpBasis(sol))
	return b.String(), nil
}

// lpBasis is the basic columns an lp.Solution keeps unexported, read by
// reflection: what a test outside package lp compares or counts.
func lpBasis(sol *lp.Solution) []int {
	v := reflect.ValueOf(sol).Elem().FieldByName("basis")
	out := make([]int, v.Len())
	for i := range out {
		out[i] = int(v.Index(i).Int())
	}
	return out
}

// reply renders what a solve path returns: the certified throughput and
// activity variables and how the LP went.
func reply(tp rat.Rat, vars any, info lp.SolveInfo) (string, error) {
	return fmt.Sprintf("%v %v %+v", tp, vars, info), nil
}

// TestPooledModelsConcurrent: eight goroutines solve distinct LPs — the
// §3.1 master-slave LP of n=48 platforms under both port models, and the
// broadcast and reduce bounds of n=8 platforms — each through the solve
// path that recycles its model and form, and each by building the model
// and solving it directly, so that every model a builder draws and every
// form a solve standardizes into was left by another LP of another size,
// family and goroutine. Every answer — values, duals and basis of
// the LP, and the reply of the solve path — is byte for byte the one a
// solo solve gets on storage no solve has used. Run under -race (CI's
// pool step does, five times over) it also proves no model or form is
// ever in two solves.
func TestPooledModelsConcurrent(t *testing.T) {
	type lpCase struct {
		name  string
		build func() (*lp.Model, error)
		serve func() (string, error)
	}
	var cases []lpCase
	for i := int64(0); i < 3; i++ {
		p48 := platform.RandomConnected(rand.New(rand.NewSource(4800+i)), 48, 48, 5, 5, 0.15)
		for _, pm := range []PortModel{SendAndReceive, SendOrReceive} {
			cases = append(cases, lpCase{
				name: fmt.Sprintf("masterslave/%v/%d", pm, i),
				build: func() (*lp.Model, error) {
					mm, err := buildMasterSlaveModel(p48, 0, onePortRows(pm), nil)
					if err != nil {
						return nil, err
					}
					return mm.m, nil
				},
				serve: func() (string, error) {
					ms, err := SolveMasterSlavePortOpts(p48, 0, pm, nil)
					if err != nil {
						return "", err
					}
					return reply(ms.Throughput, [][]rat.Rat{ms.Alpha, ms.S}, ms.LP)
				},
			})
		}
		p8 := platform.RandomConnected(rand.New(rand.NewSource(800+i)), 8, 8, 5, 5, 0.15)
		for _, reduce := range []bool{false, true} {
			// A reduce is the broadcast bound of the reversed platform.
			lpOf, solve, name := p8, SolveBroadcastBoundOpts, "broadcast"
			if reduce {
				lpOf, solve, name = p8.Reverse(), SolveReduceBoundOpts, "reduce"
			}
			var targets []int
			for v, ok := range lpOf.ReachableFrom(0) {
				if ok && v != 0 {
					targets = append(targets, v)
				}
			}
			cases = append(cases, lpCase{
				name: fmt.Sprintf("%s/%d", name, i),
				build: func() (*lp.Model, error) {
					dm, err := buildDistributionModel(lpOf, scatterFlows(0, targets), SendAndReceive, true, nil, nil)
					if err != nil {
						return nil, err
					}
					return dm.m, nil
				},
				serve: func() (string, error) {
					sc, err := solve(p8, 0, nil)
					if err != nil {
						return "", err
					}
					return reply(sc.Throughput, [][][]rat.Rat{{sc.S}, sc.Send}, sc.LP)
				},
			})
		}
	}
	// run is case i's LP built and solved directly (kind 0) or its solve
	// path's reply (kind 1).
	run := func(i, kind int) (string, error) {
		if kind == 1 {
			return cases[i].serve()
		}
		m, err := cases[i].build()
		if err != nil {
			return "", err
		}
		return lpOutcome(m)
	}

	solo := make([][2]string, len(cases))
	for i := range cases {
		for kind := range 2 {
			drainPools()
			out, err := run(i, kind)
			if err != nil {
				t.Fatalf("%s: %v", cases[i].name, err)
			}
			solo[i][kind] = out
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 2*len(cases) && !t.Failed(); n++ {
				i, kind := (3*g+n)%len(cases), (g+n/len(cases))%2
				got, err := run(i, kind)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, cases[i].name, err)
				} else if got != solo[i][kind] {
					t.Errorf("goroutine %d, %s, kind %d:\ngot  %s\nwant %s", g, cases[i].name, kind, got, solo[i][kind])
				}
			}
		}()
	}
	wg.Wait()
}
