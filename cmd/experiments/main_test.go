package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateSim = flag.Bool("update", false, "rewrite testdata/sim.golden from the current -sim output")

// TestRunSimGolden pins the -sim output byte for byte: the seven
// replay rows and the fixed/adaptive slowdown pair. Every figure in it
// is exact or comes from the deterministic event core, so a refactor of
// the simulator or of how -sim drives it shows here. Regenerate after
// an intentional change with:
//
//	go test ./cmd/experiments -run TestRunSimGolden -update
func TestRunSimGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runSim(&buf, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sim.golden")
	if *updateSim {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gl, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("-sim output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("-sim output drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
