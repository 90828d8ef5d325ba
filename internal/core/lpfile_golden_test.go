package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/steady/lp"
	"repro/pkg/steady/platform"
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
			mm, err := buildMasterSlaveModel(fig1, 0, onePortRows(SendAndReceive))
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"masterslave_sendrecv_figure1", func() (*lp.Model, error) {
			mm, err := buildMasterSlaveModel(fig1, 0, onePortRows(SendOrReceive))
			if err != nil {
				return nil, err
			}
			return mm.m, nil
		}},
		{"scatter_figure1", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig1, scatterFlows(0, []int{3, 4, 5}), SendAndReceive, false)
			if err != nil {
				return nil, err
			}
			return dm.m, nil
		}},
		{"multicast_bound_figure2", func() (*lp.Model, error) {
			dm, err := buildDistributionModel(fig2, scatterFlows(fig2.NodeByName("P0"), platform.Figure2Targets(fig2)), SendAndReceive, true)
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
			m, _ := buildTreePackingModel(fig2, trees)
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
