#!/usr/bin/env bash
# metrics_smoke.sh — scrape a LIVE steadyd and validate its metrics.
#
# Builds steadyd and metricscheck, starts the daemon on a free local
# port, drives one solve and one simulation through the HTTP API, then
# scrapes GET /metrics and feeds it to metricscheck, requiring the
# families every layer of the observability stack must export (lp,
# cache, sim, sim/event, server/RED). Also checks that /v1/stats still
# answers and that -metrics=false turns /metrics into a 404.
#
# CI runs it on every push; locally: ./scripts/metrics_smoke.sh
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
DIR="$(mktemp -d)"
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

cd "$REPO"
go build -o "$DIR/steadyd" ./cmd/steadyd
go build -o "$DIR/metricscheck" ./cmd/metricscheck

# wait_up starts steadyd with the given extra flags on a free port,
# setting ADDR/BASE/PID. Ports are probed until one binds (the daemon
# exits immediately when the bind fails).
wait_up() {
  for port in 18080 18081 18082 18083 18084; do
    ADDR="127.0.0.1:$port"
    BASE="http://$ADDR"
    "$DIR/steadyd" -addr "$ADDR" "$@" &
    PID=$!
    for i in $(seq 1 50); do
      if ! kill -0 "$PID" 2>/dev/null; then break; fi
      curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1 && return 0
      sleep 0.1
    done
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=""
  done
  echo "metrics_smoke: could not start steadyd" >&2
  exit 1
}

wait_up

# One small platform, reused by the solve (twice, for a cache hit)
# and the simulation.
PLAT='{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"},{"name":"P3","w":"3"}],"edges":[{"from":"P1","to":"P2","c":"1"},{"from":"P1","to":"P3","c":"2"}]}'
printf '{"problem":"masterslave","root":"P1","platform":%s}' "$PLAT" > "$DIR/solve.json"
printf '{"problem":"masterslave","root":"P1","platform":%s,"scenario":{"periods":20}}' "$PLAT" > "$DIR/simulate.json"

curl -fsS -X POST -H 'Content-Type: application/json' --data @"$DIR/solve.json" "$BASE/v1/solve" >/dev/null
curl -fsS -X POST -H 'Content-Type: application/json' --data @"$DIR/solve.json" "$BASE/v1/solve" >/dev/null
curl -fsS -X POST -H 'Content-Type: application/json' --data @"$DIR/simulate.json" "$BASE/v1/simulate" >/dev/null
curl -fsS "$BASE/v1/stats" | grep -q '"solvers"'

"$DIR/metricscheck" -url "$BASE/metrics" -require \
  steady_lp_solves_total,steady_cache_misses_total,steady_sim_runs_total,steady_sim_events_total,steady_solve_requests_total,steady_http_requests_total,steady_stage_duration_seconds_count,steady_server_uptime_seconds,steady_control_deployments,steady_control_epochs_total,steady_control_resolves_total,steady_control_drift_events_total,steady_control_observations_total,steady_go_alloc_bytes_total,steady_go_gc_cycles_total

kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""

# -metrics=false: the endpoint must not exist, the service must still work.
wait_up -metrics=false
CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/metrics")"
if [ "$CODE" != "404" ]; then
  echo "metrics_smoke: GET /metrics with -metrics=false answered $CODE, want 404" >&2
  exit 1
fi
curl -fsS -X POST -H 'Content-Type: application/json' --data @"$DIR/solve.json" "$BASE/v1/solve" >/dev/null

echo "metrics smoke OK"
