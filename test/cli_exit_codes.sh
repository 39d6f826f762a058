#!/bin/sh
# Exit-code contract of the log-ingestion commands:
#   0 clean, 2 quarantined entries, 3 malformed log lines (3 wins when
#   both apply — a skipped line shifts every later index, so the log
#   must not be trusted). Also: a broken --pack warns and runs cold,
#   and a malformed query is a bad request (exit 1).
# Usage: cli_exit_codes.sh path/to/timeprint_cli.exe
set -u
cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
# a private working directory: dune may run the CLI scripts at once in
# one build directory, where their scratch files would share names
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
enc="--scheme one-hot -m 8"
fail() { echo "cli_exit_codes: $1" >&2; exit 1; }

expect() {
  want="$1"; name="$2"; shift 2
  "$@" >out.txt 2>err.txt
  got=$?
  [ "$got" -eq "$want" ] || {
    cat out.txt err.txt >&2
    fail "$name: expected exit $want, got $got"
  }
}

# clean log: weight-k timeprints are realizable under one-hot
printf '00000011 2\n# comment\n\n10000000 1\n' >clean.log
expect 0 "clean log" $cli stream $enc clean.log

# a malformed line is counted and reported via exit 3
printf '00000011 2\nbogus\n' >malformed.log
expect 3 "malformed line" $cli stream $enc malformed.log
grep -q "malformed log line(s) skipped" err.txt || fail "malformed: missing count on stderr"

# an unexplainable entry quarantines: exit 2, distinct from 3
printf '10000000 3\n' >quarantine.log
expect 2 "quarantined entry" $cli stream $enc quarantine.log

# malformed wins over quarantine
printf '10000000 3\nbogus\n' >both.log
expect 3 "malformed beats quarantine" $cli stream $enc both.log

# corrupt shares the reader and the exit code
expect 3 "corrupt sees malformed" $cli corrupt $enc malformed.log

# a truncated pack is a warning plus a cold run, never a failure
expect 0 "compile pack" $cli compile $enc pack.tpk
head -c 20 pack.tpk >broken.tpk
expect 0 "broken pack runs cold" $cli stream $enc --pack broken.tpk clean.log
grep -q "running cold" err.txt || fail "broken pack: missing cold-run warning"

# a timeprint narrower than the encoding's b is a bad request (exit 1)
# on every query command, never an uncaught exception
for cmd in reconstruct check "dimacs --pulse"; do
  expect 1 "$cmd: timeprint width" $cli $cmd -m 16 --tp 0000000100 -k 4
  grep -q "^error: code=bad-request msg=" err.txt ||
    fail "$cmd: timeprint width: missing bad-request line"
done

# a design its parameters cannot realize (an incremental counter out of
# 1-bit values) is a bad request too, not an internal error
expect 1 "impossible design" $cli reconstruct --scheme incremental -m 3 -b 1 \
  --tp 1 -k 1
grep -q "^error: code=bad-request msg=" err.txt ||
  fail "impossible design: missing bad-request line"

# a k no log can hold (max_int) is quarantined next to an entry routed
# to SAT (k = 9, past the MITM range, so an m = 32 design) at every
# budget, and is unrepairable as a query: no counter bound wraps round
enc32="--scheme random -m 32"
tp9=$($cli log $enc32 01101000100010000000100000010011 | sed -n 's/^TP = //p')
printf '%s 9\n%s 4611686018427387903\n' "$tp9" "$tp9" >hostile.log
for r in 0 1; do
  expect 2 "hostile k, repair $r" $cli stream $enc32 --repair $r hostile.log
done
expect 0 "hostile k query" $cli reconstruct $enc --tp 01111111 \
  -k 4611686018427387903 --repair 1
grep -q "^unrepairable" out.txt || fail "hostile k query: not unrepairable"

echo "cli exit codes ok"
