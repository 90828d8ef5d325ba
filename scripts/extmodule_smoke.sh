#!/usr/bin/env bash
# extmodule_smoke.sh — prove the pkg/ tree is importable from OUTSIDE
# this module, forever.
#
# Materializes a throwaway Go module in a temp dir with a `replace`
# directive pointing back at this checkout, writes a small client that
# builds a platform, validates a spec, solves it twice (the second solve
# must answer the first's throughput and rates exactly), and round-trips the platform through the JSON codec —
# using ONLY repro/pkg/... imports — then builds and runs it.
#
# Go forbids external modules from importing internal/ packages, so
# this smoke test fails the moment any pkg/... export (transitively)
# requires an internal type from the caller. CI runs it on every push;
# run it locally with: ./scripts/extmodule_smoke.sh
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

cat > "$DIR/go.mod" <<EOF
module extclient

go 1.24

require repro v0.0.0

replace repro => $REPO
EOF

cat > "$DIR/main.go" <<'EOF'
// extclient is the out-of-module consumer of repro's public API: it
// may import repro/pkg/... only, and must be able to do everything
// the README quickstart promises.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"strings"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

func main() {
	spec := steady.Spec{Problem: "masterslave", Root: "P1"}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	solver, err := steady.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	p := platform.Figure1()
	cold, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	again, err := solver.Solve(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	nodes, links := cold.Rates()
	againNodes, againLinks := again.Rates()
	if !again.Throughput.Equal(cold.Throughput) || !reflect.DeepEqual(nodes, againNodes) || !reflect.DeepEqual(links, againLinks) {
		log.Fatalf("re-solve disagrees: %v vs %v", again.Throughput, cold.Throughput)
	}
	var buf strings.Builder
	if err := p.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	if _, err := platform.ReadJSON(strings.NewReader(buf.String())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("external module OK: ntask(Figure1) = %v, re-solved identically\n", cold.Throughput)
}
EOF

cd "$DIR"
go build ./...
go run .
