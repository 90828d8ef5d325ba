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

// TestParseArgsRefusesUnreadFlags: every flag and experiment id the
// chosen mode would not read is refused with a one-line complaint (the
// command exits 2 on it); every combination a mode reads is accepted.
func TestParseArgsRefusesUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{nil, ""},
		{[]string{"E1", "E3"}, ""},
		{[]string{"-list"}, ""},
		{[]string{"-sim"}, ""},
		{[]string{"-sim", "-metrics-dump"}, ""},
		{[]string{"-batch", "-n", "4", "-workers", "2", "-seed", "3", "-format", "json", "-problem", "scatter"}, ""},
		{[]string{"-batch", "-metrics-dump"}, ""},
		{[]string{"-batch", "-remote", "http://127.0.0.1:8080", "-n", "4", "-seed", "3", "-format", "json", "-problem", "scatter"}, ""},

		{[]string{"-sim", "-batch"}, "-sim and -batch are exclusive"},
		{[]string{"-batch", "-sim", "-n", "4"}, "-sim and -batch are exclusive"},
		{[]string{"-sim", "-workers", "3"}, "-workers requires -batch"},
		{[]string{"-sim", "-n", "4"}, "-n requires -batch"},
		{[]string{"-sim", "-seed", "2"}, "-seed requires -batch"},
		{[]string{"-sim", "-format", "json"}, "-format requires -batch"},
		{[]string{"-sim", "-problem", "scatter"}, "-problem requires -batch"},
		{[]string{"-workers", "3", "E1"}, "-workers requires -batch"},
		{[]string{"-n", "16", "E1"}, "-n requires -batch"},
		{[]string{"-seed", "1"}, "-seed requires -batch"},
		{[]string{"-list", "-format", "json"}, "-format requires -batch"},
		{[]string{"-sim", "E1"}, "experiment ids [E1] do not combine with -batch or -sim"},
		{[]string{"-batch", "E1", "E3"}, "experiment ids [E1 E3] do not combine with -batch or -sim"},
		{[]string{"-list", "-sim"}, "-list does not combine with -batch or -sim"},
		{[]string{"-list", "-batch"}, "-list does not combine with -batch or -sim"},
		{[]string{"-remote", "http://127.0.0.1:8080"}, "-remote requires -batch"},
		{[]string{"-sim", "-remote", "http://127.0.0.1:8080"}, "-remote requires -batch"},
		{[]string{"-batch", "-remote", "http://127.0.0.1:8080", "-workers", "4"}, "-workers sizes a local -batch run's pool, not a -remote sweep"},
		{[]string{"-metrics-dump"}, "-metrics-dump requires a local -batch or -sim run"},
		{[]string{"-metrics-dump", "E1"}, "-metrics-dump requires a local -batch or -sim run"},
		{[]string{"-batch", "-remote", "http://127.0.0.1:8080", "-metrics-dump"}, "-metrics-dump requires a local -batch or -sim run"},
	} {
		var stderr bytes.Buffer
		o, err := parseArgs(tc.args, &stderr)
		if tc.want == "" {
			if err != nil || stderr.Len() != 0 {
				t.Errorf("%q: refused (%v, %q)", tc.args, err, stderr.String())
			}
			continue
		}
		if err == nil || o != nil {
			t.Errorf("%q: accepted, want %q", tc.args, tc.want)
			continue
		}
		if got, want := stderr.String(), "experiments: "+tc.want+"\n"; got != want {
			t.Errorf("%q: stderr %q, want %q", tc.args, got, want)
		}
	}
}
