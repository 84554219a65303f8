#!/usr/bin/env bash
# End-to-end smoke of the tamper-evident audit ledger on the live path:
# boot serve-auth with --audit, drive it with a loadgen burst, browse
# /audit/head and /audit over the metrics listener, shut down cleanly,
# then prove the produced ledger holds an auditable record of every
# accepted session and verifies — and that a tampered copy does not.
# Driven by `dune build @auditsmoke`.
set -euo pipefail

PEACE=${1:?usage: auditsmoke.sh PATH_TO_PEACE_CLI}
case "$PEACE" in /*) ;; *) PEACE="$PWD/$PEACE" ;; esac
DIR=$(mktemp -d /tmp/peace-auditsmoke.XXXXXX)
SERVER_PID=

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

SOCK="unix:$DIR/auth.sock"
LEDGER="$DIR/ledger.jsonl"

"$PEACE" serve-auth --addr "$SOCK" --users 2 --duration 20 \
  --audit "$LEDGER" \
  --metrics-port 0 --metrics-announce "$DIR/port.txt" 2>"$DIR/server.log" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$DIR/port.txt" ] && break
  sleep 0.1
done
[ -s "$DIR/port.txt" ] || { echo "auditsmoke: metrics port never announced"; cat "$DIR/server.log"; exit 1; }
PORT=$(cat "$DIR/port.txt")

# a short burst so the ledger records real access decisions
"$PEACE" loadgen --addr "$SOCK" --users 2 --concurrency 2 --duration 1 \
  | tee "$DIR/loadgen.txt"
OK=$(sed -n 's/^ *handshakes: \([0-9]*\) ok.*/\1/p' "$DIR/loadgen.txt")
[ -n "$OK" ] && [ "$OK" -gt 0 ] \
  || { echo "auditsmoke: loadgen completed no handshake"; exit 1; }

# the live surfaces answer while the ledger is open
"$PEACE" watch --port "$PORT" --get /audit/head > "$DIR/head.json"
grep -q '"hash":"' "$DIR/head.json" \
  || { echo "auditsmoke: /audit/head has no chain head"; cat "$DIR/head.json"; exit 1; }
"$PEACE" watch --port "$PORT" --get '/audit?since=-1' > "$DIR/window.jsonl"
grep -q '"kind":"genesis"' "$DIR/window.jsonl" \
  || { echo "auditsmoke: /audit window misses the genesis record"; exit 1; }
grep -q '"kind":"access_accept"' "$DIR/window.jsonl" \
  || { echo "auditsmoke: no access decisions on the ledger"; exit 1; }

# clean shutdown seals the ledger with a final signed checkpoint
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

"$PEACE" audit verify "$LEDGER" \
  || { echo "auditsmoke: pristine ledger failed to verify"; exit 1; }

# one access_accept per accepted session, each carrying what the §IV-D
# audit opens: the full session id, the (M.2) transcript and the group
# signature
ACCEPTS=$(grep -c '"kind":"access_accept"' "$LEDGER" || true)
[ "$ACCEPTS" = "$OK" ] \
  || { echo "auditsmoke: $ACCEPTS access_accept records for $OK handshakes"; exit 1; }
AUDITABLE=$(grep '"kind":"access_accept"' "$LEDGER" \
  | grep -E '"session":"[0-9a-f]{64}"' | grep -E '"transcript":"[0-9a-f]+"' \
  | grep -Ec '"gsig":"[0-9a-f]+"' || true)
[ "$AUDITABLE" = "$OK" ] \
  || { echo "auditsmoke: $AUDITABLE of $OK access_accept records are auditable"; exit 1; }

# a byte flip must be caught
sed '2s/"ts":"1/"ts":"2/' "$LEDGER" > "$DIR/tampered.jsonl"
if "$PEACE" audit verify "$DIR/tampered.jsonl" >/dev/null; then
  echo "auditsmoke: tampered ledger verified"; exit 1
fi

# so must a truncated tail (genesis + the first event is a prefix that
# cannot end at a checkpoint: checkpoints only appear every 32 events)
head -n 2 "$LEDGER" > "$DIR/cut.jsonl"
if "$PEACE" audit verify "$DIR/cut.jsonl" >/dev/null; then
  echo "auditsmoke: truncated ledger verified"; exit 1
fi

echo "auditsmoke: ok (live /audit surfaces, $OK accepted sessions auditable, sealed ledger verifies, tampering detected)"
