#!/bin/sh
# End-to-end smoke test of the tgz command-line tool: every subcommand,
# composed through the tgraph-store v3 container — plus a tgzd
# start-serve-query-shutdown cycle when the server binary is given.
set -e
TGZ="$1"
TGZD="$2"
DIR="$(mktemp -d)"
TGZD_PID=""
cleanup() {
  [ -n "$TGZD_PID" ] && kill "$TGZD_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

# expect_usage_error FLAG CMD...: CMD must exit 2 (not abort) and name FLAG
# on stderr.
expect_usage_error() {
  flag="$1"
  shift
  if "$@" > /dev/null 2> "$DIR/usage.err"; then code=0; else code=$?; fi
  if [ "$code" -ne 2 ] || ! grep -q -- "$flag" "$DIR/usage.err"; then
    echo "expected exit 2 naming $flag from: $* (got $code)" >&2
    cat "$DIR/usage.err" >&2
    exit 1
  fi
}

"$TGZ" generate --dataset snb --out "$DIR/base" --scale 0.1 --seed 7
# Every writer emits one v3 store and nothing else.
test -f "$DIR/base/graph.tgs"
test "$(ls "$DIR/base")" = "graph.tgs"
head -c 8 "$DIR/base/graph.tgs" | grep -q "TGSTORE3"
"$TGZ" info --in "$DIR/base" | grep -q "vertices       500"
"$TGZ" slice --in "$DIR/base" --out "$DIR/slice" --from 6 --to 30
"$TGZ" info --in "$DIR/slice" | grep -q "lifetime       \[6, 30)"
"$TGZ" azoom --in "$DIR/base" --out "$DIR/cohorts" \
    --group-by firstName --type cohort --count people --rep og
"$TGZ" wzoom --in "$DIR/cohorts" --out "$DIR/quarters" \
    --window 3 --vq exists --eq exists --rep ogc
"$TGZ" snapshot --in "$DIR/quarters" --at 12 --limit 2 | grep -q "snapshot at 12"
# Observability: --trace-out writes a Chrome trace, --metrics prints the
# run's metric deltas to stderr.
"$TGZ" --trace-out="$DIR/trace.json" --metrics wzoom --in "$DIR/cohorts" \
    --out "$DIR/quarters2" --window 3 --vq exists --eq exists --rep og \
    2> "$DIR/obs.err"
grep -q '"traceEvents"' "$DIR/trace.json"
grep -q '"ph":"X"' "$DIR/trace.json"
grep -q '"name":"tgz.wzoom"' "$DIR/trace.json"
grep -q '"name":"dataflow.shuffle"' "$DIR/trace.json"
grep -q "wrote trace to" "$DIR/obs.err"
grep -q "dataflow.shuffle.records" "$DIR/obs.err"
grep -q "dataflow.shuffle.partition_size" "$DIR/obs.err"
# Without the flags, no trace file appears and stderr stays quiet.
"$TGZ" info --in "$DIR/base" 2> "$DIR/plain.err" > /dev/null
test ! -s "$DIR/plain.err"
# Unknown flags and bad inputs must fail loudly.
if "$TGZ" wzoom --in "$DIR/base" --out "$DIR/x" --window 0 2>/dev/null; then
  echo "expected nonzero exit for window 0" >&2
  exit 1
fi
if "$TGZ" info --in "$DIR/nonexistent" 2>/dev/null; then
  echo "expected nonzero exit for missing input" >&2
  exit 1
fi
# Numeric flags are parsed whole and range-checked.
expect_usage_error --scale \
    "$TGZ" generate --dataset wikitalk --out "$DIR/bad" --scale abc
expect_usage_error --seed \
    "$TGZ" generate --dataset snb --out "$DIR/bad" --seed 7x
expect_usage_error --from "$TGZ" slice --in "$DIR/base" --out "$DIR/bad" \
    --from 1e --to 30
expect_usage_error --window "$TGZ" wzoom --in "$DIR/base" --out "$DIR/bad" \
    --window -3
expect_usage_error --vq "$TGZ" wzoom --in "$DIR/base" --out "$DIR/bad" \
    --window 3 --vq atleast:1.5
expect_usage_error --limit \
    "$TGZ" snapshot --in "$DIR/base" --at 12 --limit many
expect_usage_error --connect "$TGZ" stats --connect 127.0.0.1:port

# --- save-store rewrites the store with other partitioning or another
# representation -----------------------------------------------------------
"$TGZ" save-store --in "$DIR/base" --out "$DIR/store" --partition-rows 256
test -f "$DIR/store/graph.tgs"
"$TGZ" info --in "$DIR/store" | grep -q "vertices       500"
"$TGZ" snapshot --in "$DIR/store" --at 12 --limit 2 | grep -q "snapshot at 12"
"$TGZ" slice --in "$DIR/store" --out "$DIR/store_slice" --from 6 --to 30
"$TGZ" info --in "$DIR/store_slice" | grep -q "lifetime       \[6, 30)"
"$TGZ" save-store --in "$DIR/base" --out "$DIR/store_og" --rep og
test -f "$DIR/store_og/graph.tgs"
# A VE load of an og-only store names the table it lacks.
if "$TGZ" info --in "$DIR/store_og" 2> "$DIR/og.err" > /dev/null; then
  echo "expected nonzero exit for info on an og store" >&2
  exit 1
fi
grep -q "no 'vertices' table" "$DIR/og.err"
if "$TGZ" save-store --in "$DIR/base" 2>/dev/null; then
  echo "expected nonzero exit for save-store without --out" >&2
  exit 1
fi

# --help exits 0 on stdout for both binaries; bad usage exits nonzero.
"$TGZ" --help | grep -q "save-store"
"$TGZ" help > /dev/null
if [ -n "$TGZD" ]; then
  "$TGZD" --help | grep -q -- "--port"
fi
if "$TGZ" frobnicate 2>/dev/null; then
  echo "expected nonzero exit for unknown command" >&2
  exit 1
fi

# --- tgzd: start, serve over a real socket, stats, graceful shutdown -------
if [ -n "$TGZD" ]; then
  expect_usage_error --port "$TGZD" --port abc
  expect_usage_error --port "$TGZD" --port 70000
  expect_usage_error --workers "$TGZD" --workers 0
  expect_usage_error --cache-bytes "$TGZD" --cache-bytes 64MiB
  expect_usage_error --view-max-suffix-fraction \
      "$TGZD" --view-max-suffix-fraction x
  # An unknown flag (a typo, or the removed --cache-ttl-ms) is refused
  # instead of starting a server that ignores it.
  expect_usage_error --cache-bytse "$TGZD" --cache-bytse 0
  expect_usage_error --cache-ttl-ms "$TGZD" --cache-ttl-ms=5
  expect_usage_error --metrics "$TGZD" --metrics=1
  "$TGZD" --port 0 --workers 2 > "$DIR/tgzd.out" 2> "$DIR/tgzd.err" &
  TGZD_PID=$!
  # The startup line carries the bound ephemeral port.
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^tgraphd listening on port \([0-9]*\)$/\1/p' \
        "$DIR/tgzd.out")
    [ -n "$PORT" ] && break
    sleep 0.1
  done
  [ -n "$PORT" ] || { echo "tgzd never reported its port" >&2; exit 1; }

  cat > "$DIR/query.tql" <<EOF
LOAD '$DIR/base' AS g;
SET cohorts = AZOOM g BY firstName AGGREGATE COUNT() AS people;
INFO cohorts;
EOF
  "$TGZ" query --script "$DIR/query.tql" --connect "127.0.0.1:$PORT" \
      > "$DIR/serve1.out" 2> "$DIR/serve1.err"
  grep -q "cohorts" "$DIR/serve1.out"
  # The identical script again: answered from the result cache.
  "$TGZ" query --script "$DIR/query.tql" --connect "127.0.0.1:$PORT" \
      > "$DIR/serve2.out" 2> "$DIR/serve2.err"
  grep -q "served from cache" "$DIR/serve2.err"
  cmp -s "$DIR/serve1.out" "$DIR/serve2.out"
  # STATS shows the hit and the catalog load (the store partitions the
  # load decoded flow into the same registry).
  "$TGZ" stats --connect "127.0.0.1:$PORT" > "$DIR/stats.out"
  grep -q "server.cache.hits 1" "$DIR/stats.out"
  grep -q "server.catalog.loads 1" "$DIR/stats.out"
  grep -q "store.partitions_decoded" "$DIR/stats.out"
  # SIGTERM drains: the process exits 0 on its own.
  kill -TERM "$TGZD_PID"
  for _ in $(seq 1 50); do
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
fi
echo "tgz CLI smoke OK"
