#!/bin/sh
# check_docs.sh — fail if the README stops matching reality.
#
#   tools/check_docs.sh REPO_ROOT TGZ_BINARY [TGZD_BINARY]
#
# Cross-checks three kinds of user-facing surface against the docs:
#   1. every --flag printed by `tgz --help` and `tgzd --help`
#   2. every TGRAPH_* environment variable read anywhere under src/
#   3. the normative format spec: every docs/FORMAT.md section anchor the
#      code cites (e.g. "FORMAT.md §5.2") must exist in the document, and
#      every segment-encoding wire name the store advertises must be
#      specified in §5
# Anything a binary advertises (or an env var the code consults) that the
# README does not mention is reported and the script exits nonzero, so a
# new flag cannot land without its documentation.
set -eu

ROOT="$1"
TGZ="$2"
TGZD="${3:-}"
README="$ROOT/README.md"
[ -f "$README" ] || { echo "check_docs: no README.md at $ROOT" >&2; exit 2; }

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# --- surface 1: command-line flags from --help ----------------------------
"$TGZ" --help > "$TMP/help.txt"
if [ -n "$TGZD" ]; then
  "$TGZD" --help >> "$TMP/help.txt"
fi
# "--flag" is the help text's placeholder for "any flag", not a flag.
grep -oE -- '--[a-z][a-z-]+' "$TMP/help.txt" | sort -u \
  | grep -vx -- '--flag' > "$TMP/flags.txt"

# --- surface 2: TGRAPH_* environment variables read by the code -----------
# Only getenv() call sites count (header guards also match TGRAPH_[A-Z_]+).
grep -rhoE 'getenv\("TGRAPH_[A-Z_]+"' \
    "$ROOT/src" "$ROOT/tools" "$ROOT/tests" "$ROOT/bench" 2>/dev/null \
  | grep -oE 'TGRAPH_[A-Z_]+' | sort -u > "$TMP/envs.txt"

MISSING=0
while IFS= read -r flag; do
  if ! grep -qF -- "$flag" "$README"; then
    echo "check_docs: flag $flag is in --help but not in README.md" >&2
    MISSING=1
  fi
done < "$TMP/flags.txt"

while IFS= read -r var; do
  if ! grep -qF -- "$var" "$README"; then
    echo "check_docs: env var $var is read by the code but not in README.md" >&2
    MISSING=1
  fi
done < "$TMP/envs.txt"

# --- surface 3: the normative FORMAT.md spec --------------------------------
FORMAT="$ROOT/docs/FORMAT.md"
if [ -f "$FORMAT" ]; then
  # Every "FORMAT.md §N[.M]" citation in the code must resolve to a real
  # heading ("## N." or "### N.M") — a renumbered or deleted section may
  # not leave dangling references behind.
  grep -rhoE 'FORMAT\.md §[0-9]+(\.[0-9]+)?' \
      "$ROOT/src" "$ROOT/tools" "$ROOT/tests" "$ROOT/bench" 2>/dev/null \
    | grep -oE '[0-9]+(\.[0-9]+)?' | sort -u > "$TMP/anchors.txt"
  while IFS= read -r anchor; do
    if ! grep -qE "^##+ $anchor([. ]|$)" "$FORMAT"; then
      echo "check_docs: code cites FORMAT.md §$anchor but docs/FORMAT.md has no such section" >&2
      MISSING=1
    fi
  done < "$TMP/anchors.txt"
  # Every segment-encoding wire name the store implements must appear in
  # the §5 spec (between "## 5." and the next "## "): an encoding cannot
  # ship without its byte-level specification.
  awk '/^## 5\./{s=1; next} /^## /{s=0} s' "$FORMAT" > "$TMP/sec5.txt"
  for enc in raw delta_varint for dict rle delta_rle; do
    if ! grep -qE "\`$enc\`|\($enc\)|tag [0-9]+.*$enc|$enc.*tag [0-9]+" \
        "$TMP/sec5.txt"; then
      echo "check_docs: segment encoding '$enc' is not specified in docs/FORMAT.md §5" >&2
      MISSING=1
    fi
  done
fi

if [ "$MISSING" -ne 0 ]; then
  echo "check_docs: README.md is out of date (see above)" >&2
  exit 1
fi
ANCHORS=0
[ -f "$TMP/anchors.txt" ] && ANCHORS=$(wc -l < "$TMP/anchors.txt")
echo "check_docs: OK ($(wc -l < "$TMP/flags.txt") flags, $(wc -l < "$TMP/envs.txt") env vars, $ANCHORS format anchors documented)"
