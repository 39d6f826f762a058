#!/bin/sh
# Exit-code contract of the flow verbs:
#   reconstruct: 0 every flow definite/ambiguous, 2 any flow broken,
#   64 malformed spec. select: 0 with a report, 64 malformed spec or
#   missing budget. The spec grammar is the same one the daemon's
#   [flow] body speaks, so a spec this script accepts works there too.
# Usage: cli_flow.sh path/to/timeprint_cli.exe
set -u
cli="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
# a private working directory: dune may run the CLI scripts at once in
# one build directory, where their scratch files would share names
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
fail() { echo "cli_flow: $1" >&2; exit 1; }

expect() {
  want="$1"; name="$2"; shift 2
  "$@" >out.txt 2>err.txt
  got=$?
  [ "$got" -eq "$want" ] || {
    cat out.txt err.txt >&2
    fail "$name: expected exit $want, got $got"
  }
}

# one-hot TPs are the signal itself bit-reversed, so the spec below is
# req changing at cycle 2 and ack at cycle 5 — ack answers req after 3
cat >good.spec <<'EOF'
channel name=req scheme=one-hot m=8
channel name=ack scheme=one-hot m=8
entry channel=req tp=00000100 k=1
entry channel=ack tp=00100000 k=1
template name=xfer start=req step=ack:3..3
EOF
expect 0 "definite flow" $cli flow reconstruct good.spec
grep -q "definite req@2 -> ack@5" out.txt || fail "definite: missing chain"

# same events, impossible window: the flow is broken and exits 2
cat >broken.spec <<'EOF'
channel name=req scheme=one-hot m=8
channel name=ack scheme=one-hot m=8
entry channel=req tp=00000100 k=1
entry channel=ack tp=00100000 k=1
template name=xfer start=req step=ack:1..1
EOF
expect 2 "broken flow" $cli flow reconstruct broken.spec
grep -q "broken missing=ack" out.txt || fail "broken: missing diagnosis"

# malformed channel spec (no m=) is a usage error: 64, nothing ran
printf 'channel name=req scheme=one-hot\n' >bad.spec
expect 64 "malformed spec" $cli flow reconstruct bad.spec
grep -q "error:" err.txt || fail "malformed: missing error line"

# so is a window running backwards
cat >badwin.spec <<'EOF'
channel name=req scheme=one-hot m=8
template name=t start=req step=req:5..2
EOF
expect 64 "backwards window" $cli flow reconstruct badwin.spec

# select: sweepable schemes + a budget produce a report
cat >select.spec <<'EOF'
channel name=a scheme=random m=48 b=24 kmax=2 naive=24 boptions=10,12,16,24
channel name=c scheme=random m=48 b=24 seed=3 kmax=2 naive=24 boptions=10,12,16,24
property name=p1 needs=a,c
budget bits=36
EOF
expect 0 "select report" $cli flow select select.spec
grep -q "^select budget=36" out.txt || fail "select: missing header"
grep -q "properties under budget" out.txt || fail "select: missing summary"

# --budget overrides the spec's budget line
expect 0 "select budget override" $cli flow select --budget 48 select.spec
grep -q "^select budget=48" out.txt || fail "override: wrong budget"

# no budget anywhere is a usage error
grep -v '^budget' select.spec >nobudget.spec
expect 64 "select without budget" $cli flow select nobudget.spec

# one-hot channels cannot sweep widths: select rejects the spec
expect 64 "select on one-hot" $cli flow select good.spec

echo "cli flow ok"
