package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

var updateGolden = flag.Bool("update", false, "rewrite the LP-format golden files")

// TestWriteLPGolden pins the CPLEX LP-format export of the migrated
// models byte-for-byte: the writer renders from the Model surface,
// so its output must not move when the solver's internal
// representation does (the dense tableau -> sparse revised simplex
// migration is exactly the change this guards). Regenerate with
// go test ./internal/core -run TestWriteLPGolden -update.
func TestWriteLPGolden(t *testing.T) {
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	cases := []struct {
		name  string
		build func() (*lp.Model, error)
	}{
		{"masterslave_figure1", func() (*lp.Model, error) {
			mm, err := buildMasterSlaveModel(fig1, 0, onePortRows(SendAndReceive), nil)
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"masterslave_sendrecv_figure1", func() (*lp.Model, error) {
			mm, err := buildMasterSlaveModel(fig1, 0, onePortRows(SendOrReceive), nil)
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"scatter_figure1", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig1, scatterFlows(0, []int{3, 4, 5}), SendAndReceive, false, nil, nil)
			if err != nil {
				return nil, err
			}
			return dm.m, nil
		}},
		{"multicast_bound_figure2", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig2, scatterFlows(fig2.NodeByName("P0"), platform.Figure2Targets(fig2)), SendAndReceive, true, nil, nil)
			if err != nil {
				return nil, err
			}
			return dm.m, nil
		}},
		{"treepacking_figure2", func() (*lp.Model, error) {
			trees, err := EnumerateMulticastTrees(fig2, fig2.NodeByName("P0"), platform.Figure2Targets(fig2), nil)
			if err != nil {
				return nil, err
			}
			m, _ := buildTreePackingModel(fig2, trees, nil)
			return m, nil
		}},
		{"multiport_figure1", func() (*lp.Model, error) {
			mm, err := buildMasterSlaveModel(fig1, 0, UniformPorts(fig1, 2).rows, nil)
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"cards_figure1", func() (*lp.Model, error) {
			mm, err := buildMasterSlaveModel(fig1, 0, RoundRobinCards(fig1, UniformPorts(fig1, 2)).rows, nil)
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"reduce_figure1", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig1.Reverse(), scatterFlows(0, []int{1, 2, 3, 4, 5}), SendAndReceive, true, nil, nil)
			if err != nil {
				return nil, err
			}
			return dm.m, nil
		}},
		{"alltoall_figure1", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig1, [][2]int{{0, 3}, {3, 0}}, SendAndReceive, false, nil, nil)
			if err != nil {
				return nil, err
			}
			return dm.m, nil
		}},
		{"dagrate_figure1", func() (*lp.Model, error) {
			return buildDAGRateModel(fig1, ChainDAG(2), nil).m, nil
		}},
		{"dagallocation_figure1", func() (*lp.Model, error) {
			_, usages, err := enumerateAllocations(fig1, ChainDAG(2))
			if err != nil {
				return nil, err
			}
			m, _ := buildAllocationModel(fig1.NumNodes(), usages, nil)
			return m, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.WriteLP(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".lp")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("LP export of %s drifted from golden %s (regenerate with -update only if the model itself legitimately changed)", tc.name, path)
			}
		})
	}
}

// TestRowNamesInErrors pins, for every builder family and every port
// variant of the task-flow LP, the text CheckFeasible gives a point
// that breaks one row: the row's name is in it. The .lp goldens pin
// the variable names; nothing else reads a row's.
func TestRowNamesInErrors(t *testing.T) {
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	taskFlow := func(ports portRows) func() *lp.Model {
		return func() *lp.Model {
			mm, err := buildMasterSlaveModel(fig1, 0, ports, nil)
			if err != nil {
				t.Fatal(err)
			}
			return mm.m
		}
	}
	distribution := func(flows [][2]int, maxOperator bool) func() *lp.Model {
		return func() *lp.Model {
			dm, err := buildDistributionModel(fig1, flows, SendAndReceive, maxOperator, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return dm.m
		}
	}
	one := rat.One()
	for _, tc := range []struct {
		name  string
		build func() *lp.Model
		at    map[string]rat.Rat // the point: these variables, the others 0
		want  string
	}{
		{"masterslave", taskFlow(onePortRows(SendAndReceive)),
			map[string]rat.Rat{"alpha[P3]": one},
			"lp: constraint 15 (conserve[P3]): -1/3 == 0 violated",
		},
		{"masterslave out-port", taskFlow(onePortRows(SendAndReceive)),
			map[string]rat.Rat{"s[P2->P1#1]": one, "s[P2->P4#4]": one},
			"lp: constraint 2 (out-port[P2]): 2 <= 1 violated",
		},
		{"masterslave send-or-receive", taskFlow(onePortRows(SendOrReceive)),
			map[string]rat.Rat{"s[P1->P2#0]": one, "s[P2->P1#1]": one},
			"lp: constraint 0 (port[P1]): 2 <= 1 violated",
		},
		{"multiport", taskFlow(UniformPorts(fig1, 2).rows),
			map[string]rat.Rat{"s[P2->P1#1]": one, "s[P2->P4#4]": one, "s[P2->P5#6]": one},
			"lp: constraint 2 (send-cards[P2]): 3 <= 2 violated",
		},
		{"cards", taskFlow(RoundRobinCards(fig1, UniformPorts(fig1, 2)).rows),
			map[string]rat.Rat{"s[P2->P1#1]": one, "s[P2->P5#6]": one},
			"lp: constraint 4 (send[P2#0]): 2 <= 1 violated",
		},
		{"scatter", distribution(scatterFlows(0, []int{3, 4, 5}), false),
			map[string]rat.Rat{"TP": one},
			"lp: constraint 38 (deliver[k0]): -1 == 0 violated",
		},
		{"scatter conserve", distribution(scatterFlows(0, []int{3, 4, 5}), false),
			map[string]rat.Rat{"send[e2,k0]": rat.New(1, 2), "s[P1->P3#2]": one},
			"lp: constraint 29 (conserve[n2,k0]): 1/2 == 0 violated",
		},
		{"multicast bound", distribution(scatterFlows(0, []int{3, 4, 5}), true),
			map[string]rat.Rat{"send[e0,k0]": one},
			"lp: constraint 12 (share[e0,k0]): 1 <= 0 violated",
		},
		{"tree packing", func() *lp.Model {
			trees, err := EnumerateMulticastTrees(fig2, fig2.NodeByName("P0"), platform.Figure2Targets(fig2), nil)
			if err != nil {
				t.Fatal(err)
			}
			m, _ := buildTreePackingModel(fig2, trees, nil)
			return m
		}, map[string]rat.Rat{"x[tree0]": rat.FromInt(100)},
			"lp: constraint 0 (send[P0]): 200 <= 1 violated",
		},
		{"dag rate", func() *lp.Model { return buildDAGRateModel(fig1, ChainDAG(2), nil).m },
			map[string]rat.Rat{"TP": one},
			"lp: constraint 38 (rate[k0]): -1 == 0 violated",
		},
		{"dag allocation", func() *lp.Model {
			_, usages, err := enumerateAllocations(fig1, ChainDAG(2))
			if err != nil {
				t.Fatal(err)
			}
			m, _ := buildAllocationModel(fig1.NumNodes(), usages, nil)
			return m
		}, map[string]rat.Rat{"x[a0]": rat.FromInt(100)},
			"lp: constraint 0 (cpu[n0]): 600 <= 1 violated",
		},
	} {
		m := tc.build()
		err := m.CheckFeasible(pointAt(t, m, tc.at))
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: CheckFeasible says %v, want %q", tc.name, err, tc.want)
		}
	}
}

// pointAt is the point of m whose variables named in at take their
// value there and every other variable 0.
func pointAt(t *testing.T, m *lp.Model, at map[string]rat.Rat) []rat.Rat {
	t.Helper()
	x := make([]rat.Rat, m.NumVars())
	for v := range x {
		if val, ok := at[m.Name(lp.Var(v))]; ok {
			x[v] = val
			delete(at, m.Name(lp.Var(v)))
		}
	}
	if len(at) > 0 {
		t.Fatalf("no variable named %v", at)
	}
	return x
}
