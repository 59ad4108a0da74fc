#!/bin/sh
# End-to-end test of the observability plane: starts tgzd with the metrics
# endpoint, slow-query log, and always-on trace sampling; drives queries
# through tgz; then validates
#   - the /metrics HTTP endpoint parses as Prometheus text exposition
#     (TYPE lines, cumulative monotonic histogram buckets, +Inf == _count),
#   - the kMetrics protocol verb returns the same exposition,
#   - `tgz query --trace` exports the query's spans nested under its id,
#   - `tgz stats --json` is well-formed,
#   - the slow-query log holds structured per-stage entries,
#   - SIGTERM drains cleanly with sampling on.
#
# Usage: metrics_e2e.sh <tgz> <tgzd>
set -e
TGZ="$1"
TGZD="$2"
[ -x "$TGZ" ] && [ -x "$TGZD" ] || { echo "usage: $0 <tgz> <tgzd>" >&2; exit 2; }
CURL="${CURL:-curl}"
command -v "$CURL" > /dev/null || { echo "curl not found" >&2; exit 2; }

DIR="$(mktemp -d)"
TGZD_PID=""
cleanup() {
  [ -n "$TGZD_PID" ] && kill "$TGZD_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

"$TGZ" generate --dataset snb --out "$DIR/base" --scale 0.1 --seed 7

TGRAPH_TRACE_SAMPLE=1 "$TGZD" --port 0 --workers 2 --metrics-port 0 \
    --slow-query-log "$DIR/slow.jsonl" --slow-query-ms 0 \
    > "$DIR/tgzd.out" 2> "$DIR/tgzd.err" &
TGZD_PID=$!
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^tgraphd listening on port \([0-9]*\)$/\1/p' "$DIR/tgzd.out")
  MPORT=$(sed -n 's/^tgraphd metrics on port \([0-9]*\)$/\1/p' "$DIR/tgzd.out")
  [ -n "$PORT" ] && [ -n "$MPORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "tgzd never reported its port" >&2; exit 1; }
[ -n "$MPORT" ] || { echo "tgzd never reported its metrics port" >&2; exit 1; }

cat > "$DIR/query.tql" <<EOF
LOAD '$DIR/base' AS g;
SET cohorts = AZOOM g BY firstName AGGREGATE COUNT() AS people;
INFO cohorts;
EOF
"$TGZ" query --script "$DIR/query.tql" --connect "127.0.0.1:$PORT" \
    > "$DIR/q1.out"
grep -q "cohorts" "$DIR/q1.out"
# Same script again — a cache hit, so the slow log sees both dispositions.
"$TGZ" query --script "$DIR/query.tql" --connect "127.0.0.1:$PORT" \
    > /dev/null 2> /dev/null
# Per-query trace export: spans nest under the query id.
"$TGZ" query --script "$DIR/query.tql" --connect "127.0.0.1:$PORT" \
    --trace "$DIR/trace.json" > /dev/null 2> "$DIR/q3.err"
grep -q '"traceEvents"' "$DIR/trace.json"
grep -q '"tgraphd.query"' "$DIR/trace.json"
grep -q '"qid"' "$DIR/trace.json"
grep -q "wrote query trace to" "$DIR/q3.err"

# --- /metrics over HTTP ----------------------------------------------------
"$CURL" -sS -D "$DIR/headers" "http://127.0.0.1:$MPORT/metrics" \
    > "$DIR/metrics.txt"
grep -q "200 OK" "$DIR/headers"
grep -q "text/plain; version=0.0.4" "$DIR/headers"
# Prometheus text exposition shape: TYPE lines for each kind, no raw
# dotted names, and the counters the workload must have moved.
grep -q "^# TYPE tgraph_server_requests counter$" "$DIR/metrics.txt"
grep -q "^# TYPE tgraph_server_request_micros histogram$" "$DIR/metrics.txt"
grep -q "^tgraph_server_query_count [1-9]" "$DIR/metrics.txt"
grep -q "^tgraph_server_cache_hits [1-9]" "$DIR/metrics.txt"
grep -q "^tgraph_server_query_sampled [1-9]" "$DIR/metrics.txt"
grep -q "tgraph_store_partitions_decoded" "$DIR/metrics.txt"
if grep -q "^[a-z_]*\." "$DIR/metrics.txt"; then
  echo "dotted metric name leaked into exposition" >&2
  exit 1
fi
# Every metric line is NAME VALUE; histogram buckets are cumulative,
# monotone, and end with +Inf == _count.
awk '
  /^#/ { next }
  !/^[A-Za-z_][A-Za-z0-9_]*(\{le="[^"]*"\})? -?[0-9]+$/ {
    print "unparseable line: " $0; exit 1
  }
  /_bucket\{le="/ {
    name = $0; sub(/\{.*/, "", name)
    if (name == prev && $2 + 0 < last + 0) {
      print "non-monotonic buckets in " name; exit 1
    }
    if ($0 ~ /le="\+Inf"/) inf[name] = $2 + 0
    prev = name; last = $2 + 0
    next
  }
  /_count [0-9]+$/ { base = $1; sub(/_count$/, "", base); cnt[base] = $2 + 0 }
  END {
    for (b in inf) {
      base = b; sub(/_bucket$/, "", base)
      if (!(base in cnt) || inf[b] != cnt[base]) {
        print "+Inf bucket != _count for " base; exit 1
      }
    }
  }
' "$DIR/metrics.txt"
# Unknown paths answer 404, and the connection still closes cleanly.
CODE=$("$CURL" -sS -o /dev/null -w "%{http_code}" "http://127.0.0.1:$MPORT/nope")
[ "$CODE" = "404" ] || { echo "expected 404 for /nope, got $CODE" >&2; exit 1; }

# --- the same exposition over the wire protocol ----------------------------
"$TGZ" metrics --connect "127.0.0.1:$PORT" > "$DIR/metrics_verb.txt"
grep -q "^# TYPE tgraph_server_requests counter$" "$DIR/metrics_verb.txt"
grep -q "^tgraph_server_query_count [1-9]" "$DIR/metrics_verb.txt"

# --- stats --json ----------------------------------------------------------
"$TGZ" stats --connect "127.0.0.1:$PORT" --json v > "$DIR/stats.json"
grep -q '"server":{' "$DIR/stats.json"
grep -q '"opt_stats":' "$DIR/stats.json"
grep -q '"metrics":' "$DIR/stats.json"

# --- slow-query log --------------------------------------------------------
grep -q '"query_id":"' "$DIR/slow.jsonl"
grep -q '"cache":"miss"' "$DIR/slow.jsonl"
grep -q '"cache":"hit"' "$DIR/slow.jsonl"
grep -q '"label":"AZOOM"' "$DIR/slow.jsonl"

# --- SIGTERM drains with sampling on ---------------------------------------
kill -TERM "$TGZD_PID"
for _ in $(seq 1 200); do
  kill -0 "$TGZD_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$TGZD_PID" 2>/dev/null; then
  echo "tgzd did not exit after SIGTERM" >&2
  exit 1
fi
wait "$TGZD_PID"
TGZD_PID=""
grep -q "tgraphd drained, exiting" "$DIR/tgzd.out"

echo "metrics e2e OK"
