#!/usr/bin/env bash
# control_smoke.sh — boot a LIVE steadyd with a fast control epoch and
# prove the online scheduling control plane end to end:
#
#   1. cmd/steadyagent registers the demo star (P1 w=1 -> P2 w=2 c=1,
#      P3 w=3 c=2) as a deployment and streams telemetry at it; halfway
#      through, the observed P1->P2 bandwidth cost shifts x1.5 — the
#      NWS-forecast step change of §5.5;
#   2. the control plane notices the drift and publishes a re-solved
#      epoch while telemetry is still flowing (within a couple of
#      200ms control epochs — the agent run is gated at 6s wall);
#   3. a plain `curl -N` subscriber on /v1/deployments/{id}/watch saw
#      BOTH epochs as SSE events, and the v2 drift epoch carries a
#      delta against v1: throughput changed, node P3 re-rated, both
#      links re-rated;
#   4. the drift re-solve is a cold solve of the estimate — nothing of
#      the create epoch carried over (the deprecated warm fields read
#      false and 0) — with at most 2 exact pivots (re-planning after a
#      bandwidth change costs ~zero exact work);
#   5. the v2 schedule is byte-identical to a FRESH daemon's certified
#      cold solve of the true drifted platform (c(P1->P2)=3/2,
#      throughput 13/8): same fingerprint, same exact rates — the
#      telemetry estimate converged to the real platform, and a
#      re-plan is the solve /v1/solve runs on it;
#   6. the steady_control_* metric families are exported.
#
# CI runs it on every push; locally: ./scripts/control_smoke.sh
set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
DIR="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT

cd "$REPO"
go build -o "$DIR/steadyd" ./cmd/steadyd
go build -o "$DIR/steadyagent" ./cmd/steadyagent
go build -o "$DIR/metricscheck" ./cmd/metricscheck

wait_up() { # wait_up <base-url>
  for i in $(seq 1 100); do
    curl -fsS "$1/v1/deployments" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

# Boot the daemon under test with a fast control epoch; probe a few
# ports in case one is taken.
BOOTED=0
for PORT in 18491 18591 18691; do
  URL="http://127.0.0.1:$PORT"
  "$DIR/steadyd" -addr "127.0.0.1:$PORT" -control-epoch 200ms \
    >"$DIR/steadyd.log" 2>&1 &
  DPID=$!
  if wait_up "$URL"; then PIDS+=("$DPID"); BOOTED=1; break; fi
  kill "$DPID" 2>/dev/null || true
done
if [ "$BOOTED" != "1" ]; then
  echo "control_smoke: could not boot steadyd" >&2
  exit 1
fi
echo "control_smoke: steadyd up on $URL (control epoch 200ms)"

# --- the agent drives a bandwidth shift through the control plane ----
# 8 telemetry rounds every 150ms; from round 2 on, the observed
# P1->P2 cost is 1.5 instead of 1. The agent exits 0 only after its
# own watch stream delivers a drift epoch, and prints the final
# deployment snapshot. The 6s wall gate is the "re-solve landed while
# telemetry was still flowing" assertion (the rounds alone take 1.2s).
START=$SECONDS
"$DIR/steadyagent" -addr "$URL" -id smoke -root P1 -interval 150ms -rounds 8 \
  -shift-at 2 -shift-factor 1.5 -timeout 20s -v \
  >"$DIR/snapshot.json" 2>"$DIR/agent.log" &
AGENT=$!

# A second, independent subscriber: plain curl on the SSE stream, as
# an operator would tail it. Wait for the agent to create the
# deployment first (watching an unknown id is a 404).
for i in $(seq 1 100); do
  curl -fsS "$URL/v1/deployments/smoke" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -NfsS --max-time 30 "$URL/v1/deployments/smoke/watch" \
  >"$DIR/watch.sse" 2>/dev/null &
CURL=$!

if ! wait "$AGENT"; then
  echo "control_smoke: steadyagent failed:" >&2
  cat "$DIR/agent.log" >&2
  exit 1
fi
ELAPSED=$((SECONDS - START))
if [ "$ELAPSED" -gt 6 ]; then
  echo "control_smoke: drift re-solve took ${ELAPSED}s — not within the control epoch" >&2
  exit 1
fi
echo "control_smoke: agent saw the drift epoch in ${ELAPSED}s (rounds alone take 1.2s)"

# Give the curl subscriber a beat to flush the v2 event, then stop it.
for i in $(seq 1 50); do
  grep -q '^id: 2$' "$DIR/watch.sse" 2>/dev/null && break
  sleep 0.1
done
kill "$CURL" 2>/dev/null || true
wait "$CURL" 2>/dev/null || true

# --- the watch stream carried both epochs, v2 with a delta -----------
python3 - "$DIR/watch.sse" <<'EOF'
import json, sys
events = {}
for line in open(sys.argv[1]):
    if line.startswith("data: "):
        ep = json.loads(line[len("data: "):])
        events[ep["version"]] = ep
if 1 not in events or 2 not in events:
    sys.exit(f"control_smoke: watch stream missing epochs (saw {sorted(events)})")
v1, v2 = events[1], events[2]
fail = []
if v1["reason"] != "create" or v1["throughput"] != "7/4":
    fail.append(f"v1 is {v1['reason']}/{v1['throughput']}, want create/7/4")
if v2["reason"] != "drift" or v2["throughput"] != "13/8":
    fail.append(f"v2 is {v2['reason']}/{v2['throughput']}, want drift/13/8")
d = v2.get("delta")
if not d:
    fail.append("v2 has no delta")
else:
    if d["from_version"] != 1: fail.append(f"delta.from_version {d['from_version']}")
    if not d["throughput_changed"]: fail.append("delta says throughput unchanged")
    if [n["name"] for n in d.get("nodes", [])] != ["P3"]:
        fail.append(f"delta nodes {d.get('nodes')}, want just P3")
    if len(d.get("links", [])) != 2:
        fail.append(f"delta links {d.get('links')}, want both")
if fail: sys.exit("control_smoke: " + "; ".join(fail))
print("control_smoke: watch delivered v1 (create) and v2 (drift) with a delta "
      f"touching {len(d['nodes'])} node(s) and {len(d['links'])} link(s)")
EOF

# --- the re-solve was cold and the estimate converged exactly --------
python3 - "$DIR/snapshot.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
ep = snap["epoch"]
fail = []
if ep["version"] != 2: fail.append(f"final version {ep['version']}, want 2 (one clean re-solve)")
if ep["warm_started"]: fail.append("drift re-solve reports a warm start")
if ep["pivots"] > 2: fail.append(f"{ep['pivots']} exact pivots, want <= 2")
if snap["warm_resolves"] != 0: fail.append(f"warm_resolves {snap['warm_resolves']}")
link = next(l for l in snap["model_links"] if l["from"] == "P1" and l["to"] == "P2")
if link["current"] != "3/2":
    fail.append(f"estimated c(P1->P2) {link['current']!r}, want exactly 3/2")
if fail: sys.exit("control_smoke: " + "; ".join(fail))
print(f"control_smoke: cold re-solve with {ep['pivots']} exact pivots, "
      f"estimated c(P1->P2) = {link['current']}")
EOF

# --- byte-identity: v2 equals a fresh certified solve ----------------
# A SECOND daemon (empty cache, no telemetry) solves the true drifted
# platform cold; every certified quantity of the control plane's v2
# epoch must match it exactly.
FRESH=0
for PORT2 in 18791 18891 18991; do
  URL2="http://127.0.0.1:$PORT2"
  "$DIR/steadyd" -addr "127.0.0.1:$PORT2" >"$DIR/steadyd2.log" 2>&1 &
  DPID2=$!
  if wait_up "$URL2"; then PIDS+=("$DPID2"); FRESH=1; break; fi
  kill "$DPID2" 2>/dev/null || true
done
if [ "$FRESH" != "1" ]; then
  echo "control_smoke: could not boot the fresh comparison daemon" >&2
  exit 1
fi
DRIFTED='{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"},{"name":"P3","w":"3"}],"edges":[{"from":"P1","to":"P2","c":"3/2"},{"from":"P1","to":"P3","c":"2"}]}'
printf '{"problem":"masterslave","root":"P1","platform":%s}' "$DRIFTED" > "$DIR/solve.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data @"$DIR/solve.json" "$URL2/v1/solve" > "$DIR/fresh.json"
python3 - "$DIR/snapshot.json" "$DIR/fresh.json" <<'EOF'
import json, sys
ep = json.load(open(sys.argv[1]))["epoch"]
fresh = json.load(open(sys.argv[2]))
def canon(d):
    # The certified quantities: platform fingerprint, exact objective,
    # and the full exact schedule. (Pivots, cache and timing
    # legitimately differ.)
    return json.dumps({k: d[k] for k in
                       ("solver", "fingerprint", "throughput", "value",
                        "nodes", "links")}, sort_keys=True)
a, b = canon(ep), canon(fresh)
if a != b:
    sys.exit(f"control_smoke: v2 differs from fresh certified solve:\n{a}\n{b}")
print(f"control_smoke: v2 byte-identical to fresh cold solve "
      f"(fingerprint {fresh['fingerprint'][:12]}..., throughput {fresh['throughput']})")
EOF

# --- metrics: the control families are exported ----------------------
"$DIR/metricscheck" -url "$URL/metrics" -require \
  steady_control_deployments,steady_control_watchers,steady_control_ticks_total,steady_control_epochs_total,steady_control_resolves_total,steady_control_resolve_errors_total,steady_control_resolve_pivots_total,steady_control_drift_events_total,steady_control_drift_suppressed_total,steady_control_observations_total,steady_control_observations_rejected_total,steady_control_watch_evictions_total,steady_control_watch_resyncs_total,steady_control_delta_changes_total

echo "control smoke OK"
