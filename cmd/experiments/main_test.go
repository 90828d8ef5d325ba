package main

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/pkg/steady/server"
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
		{[]string{"-batch", "-n", "4", "-seed", "3", "-format", "json", "-problem", "scatter"}, ""},
		{[]string{"-batch", "-metrics-dump"}, ""},
		{[]string{"-batch", "-remote", "http://127.0.0.1:8080", "-n", "4", "-seed", "3", "-format", "json", "-problem", "scatter"}, ""},

		{[]string{"-sim", "-batch"}, "-sim and -batch are exclusive"},
		{[]string{"-batch", "-sim", "-n", "4"}, "-sim and -batch are exclusive"},
		{[]string{"-sim", "-n", "4"}, "-n requires -batch"},
		{[]string{"-sim", "-seed", "2"}, "-seed requires -batch"},
		{[]string{"-sim", "-format", "json"}, "-format requires -batch"},
		{[]string{"-sim", "-problem", "scatter"}, "-problem requires -batch"},
		{[]string{"-n", "16", "E1"}, "-n requires -batch"},
		{[]string{"-seed", "1"}, "-seed requires -batch"},
		{[]string{"-list", "-format", "json"}, "-format requires -batch"},
		{[]string{"-sim", "E1"}, "experiment ids [E1] do not combine with -batch or -sim"},
		{[]string{"-batch", "E1", "E3"}, "experiment ids [E1 E3] do not combine with -batch or -sim"},
		{[]string{"-list", "-sim"}, "-list does not combine with -batch or -sim"},
		{[]string{"-list", "-batch"}, "-list does not combine with -batch or -sim"},
		{[]string{"-remote", "http://127.0.0.1:8080"}, "-remote requires -batch"},
		{[]string{"-sim", "-remote", "http://127.0.0.1:8080"}, "-remote requires -batch"},
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

// TestBatchLocalMatchesRemote: -batch served in process and -batch
// -remote against a steadyd print the same records, in both formats,
// apart from elapsed_us and cache_hit and the order records complete
// in; a local -metrics-dump prints its server's registry.
func TestBatchLocalMatchesRemote(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A record's error field follows the two masked ones, so a record
	// without one ends in the mask.
	mask := regexp.MustCompile(`"cache_hit":(true|false),"elapsed_us":\d+|,(true|false),\d+,`)
	// run returns the records of one -batch run, header first, and its
	// stderr.
	run := func(format string, flags ...string) (header, records []string, stderr string) {
		t.Helper()
		args := append([]string{"-batch", "-format", format}, flags...)
		var out, errs bytes.Buffer
		o, err := parseArgs(args, &errs)
		if err == nil {
			err = runBatch(&out, &errs, o)
		}
		if err != nil {
			t.Fatalf("%q: %v (%s)", args, err, errs.String())
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if format == "csv" {
			header, lines = lines[:1], lines[1:]
		}
		for i := range lines {
			lines[i] = mask.ReplaceAllString(lines[i], "_")
		}
		sort.Strings(lines)
		return header, lines, errs.String()
	}
	for _, format := range []string{"csv", "json"} {
		header, local, _ := run(format, "-n", "8")
		remoteHeader, remote, _ := run(format, "-n", "8", "-remote", ts.URL)
		if len(local) != 8 {
			t.Fatalf("-format %s: %d records, want 8:\n%s", format, len(local), strings.Join(local, "\n"))
		}
		if !slices.Equal(header, remoteHeader) || !slices.Equal(local, remote) {
			t.Errorf("-format %s: local and remote records differ:\nlocal:\n%s\nremote:\n%s",
				format, strings.Join(local, "\n"), strings.Join(remote, "\n"))
		}
		for _, rec := range local {
			if !strings.HasSuffix(rec, "_") && !strings.HasSuffix(rec, "_}") {
				t.Errorf("-format %s: record with an error: %s", format, rec)
			}
		}
	}
	if _, _, stderr := run("json", "-n", "2", "-metrics-dump"); !strings.Contains(stderr, `steady_http_requests_total{endpoint="POST /v1/sweep",code="200"} 1`) {
		t.Errorf("-metrics-dump printed no /v1/sweep request of its server:\n%s", stderr)
	}
}
