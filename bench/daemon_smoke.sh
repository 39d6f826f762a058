#!/bin/sh
# End-to-end smoke of the reconstruction service: spawn timeprintd on
# a temp socket, register a design both ways (compile on load, and
# from a pack file), stream a log, and require the daemon's verdict
# lines to be byte-identical to the one-shot CLI's — for jobs=1 and
# jobs=2. A second, repair=1 log sends most entries to SAT, so its
# response leaves the daemon in several flushed bursts; its bytes
# must equal the CLI's too. Also pins the admission contract on the
# wire: an over-quota tenant gets a structured err line while an
# in-budget request on the same socket completes. Ends with a
# protocol-level clean shutdown.
set -eu

cli=$1
daemon=$2

dir=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT INT TERM

fail() {
  echo "daemon_smoke: $1" >&2
  exit 1
}

sock="$dir/d.sock"
log="$dir/log"
enc="--scheme random -m 32"

# a small deterministic log: abstract three signals through the CLI so
# the entries always match the encoding, whatever its seed derives to
entry() {
  "$cli" log $enc "$1" | tr '\n' ' ' | sed 's/TP = //;s/k  = //;s/ $//'
  echo
}
{
  entry 00000000001100000000000000000000
  entry 01000000000000000000000000100000
  entry 00011000000000110000000000000000
} > "$log"

# the same entry with its first timeprint bit flipped: no exact-k
# witness explains it, so only SAT's repair ladder can
flip() {
  entry "$1" | awk '{ b = substr($1, 1, 1) == "0" ? "1" : "0"; print b substr($1, 2), $2 }'
}

# repair log: the fast-path prefix above, then flipped entries and
# k=7 entries (past MITM's reach) — twelve SAT-routed entries, two
# SAT chunks — and a last fast one
rlog="$dir/rlog"
{
  cat "$log"
  flip 00000000000010000000000100000000
  flip 00001010000000000000000000000000
  flip 00010000000001000000000000000000
  flip 00000000001100000000000000000000
  flip 01000000000000000000000000100000
  entry 01101000000010000000100000000011
  entry 01000010000100001010000000001001
  entry 00100101000001000100000000001010
  entry 01010001000000000010100000110000
  entry 01010001000010000010000000010010
  entry 00011000110001000110000000000000
  entry 00010100000000000111010000100000
  entry 00000000000000000000000000011000
} > "$rlog"

"$cli" stream $enc "$log" > "$dir/oneshot.out" \
  || fail "one-shot stream failed"

"$daemon" --socket "$sock" &
pid=$!
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  [ "$i" -lt 100 ] || fail "daemon did not create $sock"
  sleep 0.05
done

# register the same design twice: compiled from flags, and loaded from
# a pack file produced by the CLI's compile command
"$cli" query --socket "$sock" load name=d scheme=random m=32 2> "$dir/hdr" \
  || fail "load (compile) failed"
grep -q "status=compiled" "$dir/hdr" || fail "expected status=compiled"

"$cli" compile $enc "$dir/d.tpk" > /dev/null || fail "pack compile failed"
"$cli" query --socket "$sock" load name=p pack="$dir/d.tpk" 2> "$dir/hdr" \
  || fail "load (pack file) failed"
grep -q "status=loaded" "$dir/hdr" || fail "expected status=loaded"

# stream verdicts must be byte-identical to the one-shot CLI, on both
# the compiled and the pack-loaded design, at jobs=1 and jobs=2
for design in d p; do
  for jobs in 1 2; do
    "$cli" query --socket "$sock" --log "$log" \
      stream "design=$design" "jobs=$jobs" > "$dir/daemon.out" 2> /dev/null \
      || fail "daemon stream design=$design jobs=$jobs failed"
    cmp -s "$dir/oneshot.out" "$dir/daemon.out" \
      || fail "daemon stream design=$design jobs=$jobs differs from one-shot CLI"
  done
done

# multi-burst stream: byte-identical to the CLI at the same jobs value
for jobs in 1 2; do
  "$cli" stream $enc --repair 1 --jobs "$jobs" "$rlog" > "$dir/oneshot.out" \
    || fail "one-shot repair stream jobs=$jobs failed"
  grep -q "repaired" "$dir/oneshot.out" \
    || fail "repair log produced no repaired entry"
  "$cli" query --socket "$sock" --log "$rlog" \
    stream design=d repair=1 "jobs=$jobs" > "$dir/daemon.out" 2> /dev/null \
    || fail "daemon repair stream jobs=$jobs failed"
  cmp -s "$dir/oneshot.out" "$dir/daemon.out" \
    || fail "daemon repair stream jobs=$jobs differs from one-shot CLI"
done

# admission: a starved tenant is rejected with a structured error,
# while an in-budget request on the same socket still completes
"$cli" query --socket "$sock" quota tenant=starved bits=0.1 2> /dev/null \
  || fail "quota failed"
if "$cli" query --socket "$sock" \
     reconstruct design=d tenant=starved tp=$(cut -d' ' -f1 < "$log" | head -1) k=2 \
     2> "$dir/err"; then
  fail "over-quota request was admitted"
fi
grep -q "code=over-quota" "$dir/err" || fail "expected code=over-quota error"
"$cli" query --socket "$sock" \
  reconstruct design=d tp=$(cut -d' ' -f1 < "$log" | head -1) k=2 \
  > /dev/null 2>&1 || fail "in-budget request failed after rejection"

"$cli" query --socket "$sock" stats 2> /dev/null | grep -q "^registry " \
  || fail "stats did not report registry counters"

"$cli" query --socket "$sock" shutdown 2> /dev/null || fail "shutdown failed"
wait "$pid" || fail "daemon exited non-zero"
pid=
[ ! -S "$sock" ] || fail "socket not unlinked on shutdown"

echo "daemon smoke: streams byte-identical (single and multi-burst), admission enforced, clean shutdown"
