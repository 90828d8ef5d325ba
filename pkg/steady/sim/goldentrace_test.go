package sim

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim/event"
)

var updateTraces = flag.Bool("update", false, "rewrite the golden event traces under testdata/traces")

// goldenCells are the replayable reference runs: the two paper figures
// under the three canonical scenario families (exact static replay,
// mid-stream slowdown, adaptive re-solving). Sizes are kept small so
// the goldens stay reviewable.
func goldenCells() []struct {
	name string
	spec steady.Spec
	p    *platform.Platform
	sc   Scenario
} {
	fig1 := platform.Figure1()
	fig2 := platform.Figure2()
	ms1 := steady.Spec{Problem: "masterslave", Root: "P1"}
	ms2 := steady.Spec{Problem: "masterslave", Root: "P0"}
	return []struct {
		name string
		spec steady.Spec
		p    *platform.Platform
		sc   Scenario
	}{
		{"fig1-static", ms1, fig1, Scenario{Periods: 8}},
		{"fig1-slowdown", ms1, fig1,
			Scenario{Tasks: 40, Slowdowns: []Slowdown{{Node: "P2", Factor: 2, From: 10, Until: 60}}}},
		{"fig1-adaptive", ms1, fig1,
			Scenario{Tasks: 40, Adaptive: true, EpochLength: 10,
				Slowdowns: []Slowdown{{Node: "P2", Factor: 2, From: 10, Until: 60}}}},
		{"fig2-static", ms2, fig2, Scenario{Periods: 8}},
		{"fig2-slowdown", ms2, fig2,
			Scenario{Tasks: 40, Slowdowns: []Slowdown{{Edge: "P3->P4", Factor: 3, From: 5, Until: 40}}}},
		{"fig2-adaptive", ms2, fig2,
			Scenario{Tasks: 40, Adaptive: true, EpochLength: 15,
				Slowdowns: []Slowdown{{Edge: "P3->P4", Factor: 3, From: 5, Until: 40}}}},
	}
}

// TestGoldenEventTraces replays each reference cell and compares the
// JSONL event trace byte-for-byte against the committed golden file.
// Regenerate after an intentional trace-schema or semantics change
// with:
//
//	go test ./pkg/steady/sim -run TestGoldenEventTraces -update
func TestGoldenEventTraces(t *testing.T) {
	eng := New(Config{})
	for _, c := range goldenCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := solveOn(t, c.spec, c.p)
			var buf bytes.Buffer
			rec := event.NewWriterRecorder(&buf)
			rep, err := eng.RunRecorded(context.Background(), res, c.sc, rec)
			if err != nil {
				t.Fatalf("RunRecorded: %v", err)
			}
			if err := rec.Err(); err != nil {
				t.Fatalf("writing trace: %v", err)
			}
			if rep.TraceEvents == 0 || int64(bytes.Count(buf.Bytes(), []byte("\n"))) != rep.TraceEvents {
				t.Fatalf("trace_events = %d, trace has %d lines",
					rep.TraceEvents, bytes.Count(buf.Bytes(), []byte("\n")))
			}
			path := filepath.Join("testdata", "traces", c.name+".jsonl")
			if *updateTraces {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("trace differs from %s (%d vs %d bytes); regenerate with -update if intentional",
					path, buf.Len(), len(want))
			}
		})
	}
}
