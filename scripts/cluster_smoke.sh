#!/usr/bin/env bash
# cluster_smoke.sh — boot a LIVE 3-node steadyd cluster on loopback and
# prove the scaling story end to end:
#
#   1. all three peers see each other healthy via /v1/cluster, and
#      agree on the ring (the same virtual_nodes and ring_size);
#   2. a forwarded solve answers byte-identically to a direct solve on
#      the owner (ignoring the per-request cache_hit/elapsed_us fields);
#   3. a hot-dominated steadybench run finishes with zero errors, a
#      >=95% cluster-wide cache hit rate, and live forwarding traffic;
#      its req/s and p99 are printed, not gated (times are bench/'s);
#   4. no reply depends on what a peer solved before it: a 3-member
#      re-weighted scatter family, whose LPs have more than one optimal
#      vertex, answers byte-identically from its owner, through a
#      forward, and from every peer solving the family locally in its
#      own order;
#   5. killing one node leaves a cluster that still answers every
#      request (zero errors after the ring rebalances — graceful
#      degradation, never a 5xx);
#   6. the steady_cluster_* metric families are exported.
#
# Tunables: CLUSTER_SMOKE_DURATION (default 10s), CLUSTER_SMOKE_CONNS.
# CI runs it on every push; locally: ./scripts/cluster_smoke.sh
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
go build -o "$DIR/steadybench" ./cmd/steadybench
go build -o "$DIR/metricscheck" ./cmd/metricscheck
go build -o "$DIR/platgen" ./cmd/platgen

NCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
DURATION="${CLUSTER_SMOKE_DURATION:-10s}"
CONNS="${CLUSTER_SMOKE_CONNS:-$((32 * NCPU))}"

# Three peers on consecutive loopback ports; probe a few bases in case
# one is taken.
start_cluster() {
  local base=$1
  P1="http://127.0.0.1:$base"; P2="http://127.0.0.1:$((base+1))"; P3="http://127.0.0.1:$((base+2))"
  PEERS="$P1,$P2,$P3"
  PIDS=()
  for url in "$P1" "$P2" "$P3"; do
    "$DIR/steadyd" -addr "${url#http://}" -self "$url" -peers "$PEERS" \
      -health-interval 250ms -queue-wait 2s >"$DIR/node-${url##*:}.log" 2>&1 &
    PIDS+=($!)
  done
  # Every peer must answer and see BOTH others healthy.
  for i in $(seq 1 100); do
    healthy=0
    for url in "$P1" "$P2" "$P3"; do
      n="$(curl -fsS "$url/v1/cluster" 2>/dev/null | python3 -c '
import json,sys
try: d=json.load(sys.stdin)
except Exception: print(0); raise SystemExit
print(sum(1 for p in d.get("peers",[]) if p["healthy"]))' 2>/dev/null || echo 0)"
      [ "$n" = "3" ] && healthy=$((healthy+1))
    done
    [ "$healthy" = "3" ] && return 0
    sleep 0.1
  done
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  PIDS=()
  return 1
}

BOOTED=0
for base in 18191 18291 18391; do
  if start_cluster "$base"; then BOOTED=1; break; fi
done
if [ "$BOOTED" != "1" ]; then
  echo "cluster_smoke: could not boot a healthy 3-node cluster" >&2
  exit 1
fi
echo "cluster_smoke: 3 nodes up ($PEERS), all healthy"

# --- one ring: a key has one owner only if every peer builds the same one
RINGS="$(for url in "$P1" "$P2" "$P3"; do
  curl -fsS "$url/v1/cluster" | python3 -c 'import json,sys; d=json.load(sys.stdin); print(d["virtual_nodes"], d["ring_size"])'
done | sort -u)"
if [ "$(printf '%s\n' "$RINGS" | wc -l)" != "1" ]; then
  echo "cluster_smoke: peers disagree on the ring (virtual_nodes ring_size):" >&2
  printf '%s\n' "$RINGS" >&2
  exit 1
fi
echo "cluster_smoke: all peers agree on the ring (virtual_nodes ring_size: $RINGS)"

# --- byte-identity: a forwarded solve equals a direct solve ----------
PLAT='{"nodes":[{"name":"P1","w":"1"},{"name":"P2","w":"2"},{"name":"P3","w":"3"}],"edges":[{"from":"P1","to":"P2","c":"1"},{"from":"P1","to":"P3","c":"2"}]}'
printf '{"problem":"masterslave","root":"P1","platform":%s}' "$PLAT" > "$DIR/solve.json"
for url in "$P1" "$P2" "$P3"; do
  curl -fsS -X POST -H 'Content-Type: application/json' \
    --data @"$DIR/solve.json" "$url/v1/solve" > "$DIR/resp-${url##*:}.json"
done
python3 - "$DIR"/resp-*.json <<'EOF'
import json, sys
def canon(path):
    d = json.load(open(path))
    # cache_hit and elapsed_us legitimately differ per request; every
    # certified quantity must not.
    d.pop("cache_hit", None); d.pop("elapsed_us", None)
    return json.dumps(d, sort_keys=True)
resps = [canon(p) for p in sys.argv[1:]]
if len(set(resps)) != 1:
    sys.exit("cluster_smoke: forwarded and direct solves differ:\n" + "\n".join(resps))
EOF
echo "cluster_smoke: forwarded solve byte-identical to direct solve"

# --- load: hot-dominated mix across all three nodes ------------------
"$DIR/steadybench" -targets "$PEERS" -duration "$DURATION" -conns "$CONNS" \
  -platforms 24 -mix solve=96,simulate=4 -json > "$DIR/bench.json"
python3 - "$DIR/bench.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
print(f"cluster_smoke: {rep['requests']} requests, {rep['rps']:.0f} req/s, "
      f"p99 <= {rep['p99_us']}us, "
      f"hit rate {100*rep['hit_rate']:.1f}%, forwards {rep['forwards']}, "
      f"errors {rep['errors']}")
fail = []
if rep["errors"] != 0: fail.append(f"{rep['errors']} errors (statuses {rep['statuses']})")
if not rep["cluster"]: fail.append("targets are not clustered")
if rep["hit_rate"] < 0.95: fail.append(f"cluster-wide hit rate {rep['hit_rate']:.3f} < 0.95")
if rep["forwards"] == 0: fail.append("no forwarding traffic")
if fail: sys.exit("cluster_smoke: " + "; ".join(fail))
EOF

# --- traffic order: a family's replies do not depend on it ---------
# One n=16 topology (platgen seed 18) with its weights and costs
# re-drawn in 1-5 per member: scatter LPs of one shape, on which a solve
# primed by a neighbour's basis can end on another optimal vertex. Each
# peer solves every member itself (the forwarded header keeps a request
# where it lands), in an order of its own; then every member goes to
# each peer, which answers it or forwards it to its owner.
"$DIR/platgen" -kind random -n 16 -extra 16 -forwarders 0.15 -seed 18 > "$DIR/family-base.json"
python3 - "$DIR" <<'EOF'
import json, random, sys
d = sys.argv[1]
base = json.load(open(f"{d}/family-base.json"))
rnd = random.Random(18)
for k in range(3):
    p = json.loads(json.dumps(base))
    for n in p["nodes"]:
        if n["w"] != "inf":
            n["w"] = str(rnd.randint(1, 5))
    for e in p["edges"]:
        e["c"] = str(rnd.randint(1, 5))
    req = {"problem": "scatter", "root": "N0", "targets": ["N4", "N8", "N12"], "platform": p}
    json.dump(req, open(f"{d}/family-{k}.json", "w"))
EOF
i=0
for url in "$P1" "$P2" "$P3"; do
  case "$i" in 0) order="0 1 2" ;; 1) order="2 1 0" ;; *) order="1 2 0" ;; esac
  for k in $order; do
    curl -fsS -X POST -H 'Content-Type: application/json' -H 'X-Steady-Forwarded: cluster-smoke' \
      --data @"$DIR/family-$k.json" "$url/v1/solve" > "$DIR/family-$k-local-$i.json"
  done
  for k in 0 1 2; do
    curl -fsS -D "$DIR/family-$k-via-$i.head" -X POST -H 'Content-Type: application/json' \
      --data @"$DIR/family-$k.json" "$url/v1/solve" > "$DIR/family-$k-via-$i.json"
  done
  i=$((i+1))
done
python3 - "$DIR" <<'EOF'
import json, sys
d = sys.argv[1]
def canon(path):
    r = json.load(open(path))
    r.pop("cache_hit", None); r.pop("elapsed_us", None)
    return json.dumps(r, sort_keys=True)
forwards = 0
for k in range(3):
    replies = {canon(f"{d}/family-{k}-{how}-{i}.json") for how in ("local", "via") for i in range(3)}
    if len(replies) != 1:
        sys.exit(f"cluster_smoke: family member {k} answers {len(replies)} ways:\n" + "\n".join(sorted(replies)))
    forwards += sum("x-steady-served-by" in open(f"{d}/family-{k}-via-{i}.head").read().lower() for i in range(3))
if forwards == 0:
    sys.exit("cluster_smoke: no family member went through a forward")
print(f"cluster_smoke: 3-member scatter family byte-identical at its owners, "
      f"through {forwards} forwards and in three local orders")
EOF

# --- peer loss: the survivors keep answering everything --------------
kill "${PIDS[2]}" 2>/dev/null || true
wait "${PIDS[2]}" 2>/dev/null || true
PIDS=("${PIDS[0]}" "${PIDS[1]}")
sleep 1  # > health-interval: both survivors notice
"$DIR/steadybench" -targets "$P1,$P2" -duration 3s -conns "$CONNS" \
  -platforms 24 -mix solve=100 -json > "$DIR/bench2.json"
python3 - "$DIR/bench2.json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
if rep["errors"] != 0:
    sys.exit(f"cluster_smoke: {rep['errors']} errors after peer loss (statuses {rep['statuses']})")
print(f"cluster_smoke: after peer loss: {rep['rps']:.0f} req/s, 0 errors")
EOF

# --- metrics: the cluster families are exported ----------------------
"$DIR/metricscheck" -url "$P1/metrics" -require \
  steady_cluster_forwards_total,steady_cluster_forward_errors_total,steady_cluster_forwarded_served_total,steady_cluster_health_checks_total,steady_cluster_ring_size,steady_cluster_peers,steady_cluster_peers_healthy,steady_cluster_peer_up

echo "cluster smoke OK"
