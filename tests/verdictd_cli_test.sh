#!/usr/bin/env bash
# Drives the verdictd daemon end-to-end through the real binaries: cold
# verification over the Unix socket, warm (cached) re-verification with the
# client-visible cache marker, graceful SIGTERM drain, and the persistent
# segment carrying proved verdicts across a restart and across a SIGKILL.
#
# Usage: verdictd_cli_test.sh <path-to-verdictd> <path-to-verdictc> \
#                             <examples/models dir>
set -euo pipefail

VERDICTD="$1"
VERDICTC="$2"
MODELS="$3"
TMP="$(mktemp -d "${TMPDIR:-/tmp}/verdictd_cli.XXXXXX")"
SOCK="$TMP/verdictd.sock"
SEGMENT="$TMP/verdicts.seg"
DAEMON_PID=""

cleanup() {
  if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -KILL "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  for f in "$TMP"/*.txt; do
    [ -f "$f" ] || continue
    echo "---- $f ----" >&2
    cat "$f" >&2
  done
  exit 1
}

expect_exit() {
  local want="$1" got="$2" what="$3"
  [ "$got" -eq "$want" ] || fail "$what: expected exit $want, got $got"
}

# No socket polling here: the first client call after each start uses
# --connect-timeout, which retries with backoff while the daemon binds —
# that's the supported replacement for sleep-and-hope startup loops.
start_daemon() {
  "$VERDICTD" --socket "$SOCK" --segment-file "$SEGMENT" --jobs 2 \
    > "$TMP/daemon.txt" 2>&1 &
  DAEMON_PID=$!
}

stop_daemon() {
  kill -TERM "$DAEMON_PID"
  for _ in $(seq 1 200); do
    kill -0 "$DAEMON_PID" 2>/dev/null || { DAEMON_PID=""; return 0; }
    sleep 0.05
  done
  fail "daemon $DAEMON_PID did not exit after SIGTERM"
}

# Asserts the restarted daemon's reuse banner: the segment replay warmed the
# cache and the incremental layer indexed the replayed artifacts. The socket
# binds before the banner is flushed — poll briefly.
expect_banner() {
  for _ in $(seq 1 40); do
    grep -q "prior verdict(s) for incremental reuse" "$TMP/daemon.txt" && return 0
    sleep 0.05
  done
  fail "$1"
}

# Runs verdictc against the daemon: served_run NAME WANT_EXIT ARGS...
served_run() {
  local name="$1" want="$2"
  shift 2
  local rc=0
  "$VERDICTC" "$@" --connect "$SOCK" --connect-timeout 10 \
    > "$TMP/$name.txt" 2>&1 || rc=$?
  expect_exit "$want" "$rc" "$name run"
}

expect_warm() {
  grep -q "served from verdictd cache" "$TMP/$1.txt" || fail "$1: $2"
}

expect_cold() {
  grep -q "served from verdictd cache" "$TMP/$1.txt" && fail "$1: $2"
  return 0
}

# --version prints build identity and exits 0.
rc=0
"$VERDICTD" --version > "$TMP/version.txt" 2>&1 || rc=$?
expect_exit 0 "$rc" "verdictd --version"
grep -q "^verdictd " "$TMP/version.txt" || fail "--version must name the tool"

# A missing socket path is a usage error.
rc=0
"$VERDICTD" > /dev/null 2>&1 || rc=$?
expect_exit 2 "$rc" "verdictd without --socket"

# Connecting to a daemon that is not running is an error, not a hang.
rc=0
"$VERDICTC" "$MODELS/autoscaler.vml" --connect "$SOCK" > "$TMP/noconn.txt" 2>&1 || rc=$?
expect_exit 2 "$rc" "verdictc --connect with no daemon"

start_daemon

# Cold run through the daemon: verdicts and exit code match the local run.
# --connect-timeout covers the daemon still starting up (no sleep above).
served_run cold 0 "$MODELS/autoscaler.vml" --engine pdr
grep -q "holds" "$TMP/cold.txt" || fail "cold run must print holds verdicts"
expect_cold cold "a cold run must not claim cache hits"

# Warm run: same request is served from the daemon's verdict cache. Default
# wire is the binary framing.
served_run warm 0 "$MODELS/autoscaler.vml" --engine pdr
expect_warm warm "a warm run must be served from the verdict cache"

# The same exchange over the NDJSON debug wire: auto-detected by the daemon
# on the same socket, same verdicts, same cache hits.
served_run warm_ndjson 0 "$MODELS/autoscaler.vml" --wire ndjson --engine pdr
expect_warm warm_ndjson "an NDJSON-wire run must be served from the verdict cache"

# A violated property round-trips its counterexample over the socket and is
# re-confirmed client-side; aggregate exit code stays 1.
served_run viol 1 "$MODELS/rollout.vml" --prop quorum_kept --trace
grep -q "violated" "$TMP/viol.txt" || fail "served run must print the violation"
grep -q "counterexample confirmed" "$TMP/viol.txt" || \
  fail "served counterexample must be confirmed client-side"

# Graceful SIGTERM drain; the segment holds the v2 payloads, proof artifacts
# included.
stop_daemon
grep -q "drained" "$TMP/daemon.txt" || fail "daemon must log its graceful drain"
grep -aq '"schema":"verdict-cache-v2"' "$SEGMENT" || \
  fail "segment must carry verdict-cache-v2 payloads"
grep -aq '"artifact"' "$SEGMENT" || \
  fail "segment must persist proof artifacts alongside proved verdicts"

# Restarted daemon serves the proved verdicts from the segment: the FIRST
# request after restart is already warm, and the incremental layer re-indexes
# the replayed artifacts.
start_daemon
expect_banner "restarted daemon must index replayed artifacts for incremental reuse"
served_run restart 0 "$MODELS/autoscaler.vml" --engine pdr
expect_warm restart "restarted daemon must serve proved verdicts from the segment"

# An EDITED model after the restart: the request fingerprint no longer
# matches any cached entry, so a warm answer can only come from the
# incremental layer revalidating the replayed proof artifact against the
# changed model (restart dropped all in-memory trust; see docs/incremental.md).
sed 's/^system {/module probe {\n  var tick : 0..3;\n  rule t when tick < 3 { tick'"'"' = tick + 1; }\n  stutter always;\n}\n\nsystem {/' \
  "$MODELS/autoscaler.vml" > "$TMP/autoscaler_edit.vml"
grep -q "module probe" "$TMP/autoscaler_edit.vml" || \
  fail "test bug: model edit did not apply"
served_run edited 0 "$TMP/autoscaler_edit.vml" --engine pdr
expect_warm edited "edited model must be answered by revalidating the replayed artifact"

# A verdict first computed by THIS daemon instance, then SIGKILL: no drain,
# no flush. The restarted daemon must still serve it warm — the append made
# it durable when it was computed.
served_run fresh 1 "$MODELS/rollout.vml" --prop quorum_kept --engine bmc --trace
expect_cold fresh "a never-seen request must be computed"
{ kill -KILL "$DAEMON_PID" && wait "$DAEMON_PID"; } 2>/dev/null || true
DAEMON_PID=""
start_daemon
served_run recovered 1 "$MODELS/rollout.vml" --prop quorum_kept --engine bmc --trace
expect_warm recovered "restarted daemon must replay its segment after SIGKILL"
grep -q "counterexample confirmed" "$TMP/recovered.txt" || \
  fail "a replayed counterexample must be confirmed client-side"
served_run recovered_holds 0 "$MODELS/autoscaler.vml" --engine pdr
expect_warm recovered_holds "replayed proofs must be served warm after SIGKILL"
stop_daemon

# A version-skewed segment is never blindly trusted: with every payload's
# schema rewritten the record checksums fail, the replay stops at the first
# record, the daemon starts empty (no reuse banner) and recomputes.
LC_ALL=C sed 's/verdict-cache-v2/verdict-cache-v9/g' "$SEGMENT" > "$TMP/skewed.seg"
SEGMENT="$TMP/skewed.seg"
start_daemon
served_run skewed 0 "$MODELS/autoscaler.vml" --engine pdr
expect_cold skewed "verdicts from a version-skewed segment must not be served warm"
# Checked after the request: by now the daemon is fully up, so the banner
# would have been flushed if the skewed entries had been indexed.
grep -q "prior verdict(s) for incremental reuse" "$TMP/daemon.txt" && \
  fail "daemon must not index entries from a version-skewed segment"
stop_daemon

echo "verdictd CLI: all checks passed"
exit 0
