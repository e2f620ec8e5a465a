#!/bin/sh
# Mutant kill matrix.
#
# Each *.patch in this directory turns the program into a known-bad
# one. This script copies the source tree to a scratch directory under
# $TMPDIR, checks that the unmodified copy passes every gate, then
# applies each patch in turn, rebuilds, and runs five gates:
#
#   steady   rapilog_sim power-cut / crash runs that end in recovery and
#            the durability audit (rapilog, and a 4-replica quorum-2
#            cluster)
#   replay   crash_surface.exe --quick --check: the full-replay sweep
#   journal  the journal sweep of crash_surface.exe --quick --journal on
#            its own: its contract breaks, read from the JSON report
#            (the smoke's replay oracle is not consulted)
#   model    the model-check suites of the test runner
#            (test_main.exe test rapilog.model_check)
#   framing  the log-record framing properties (test_main.exe test
#            dbms.log_record_prop): the only gate that flips bytes, as
#            the simulator models no media corruption
#
# A gate kills a mutant when it turns red. Each patch names the gates
# that must kill it on a "killed-by:" line. The script prints the
# matrix and exits non-zero if the clean tree fails a gate, if a patch
# no longer applies, or if a mutant survives a gate named as its killer.
#
# Usage: sh test/mutants/run.sh [PATCH...]   (default: every patch here)

set -u

here=$(cd "$(dirname "$0")" && pwd)
repo=$(cd "$here/../.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/rapilog-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
src="$work/src"
mkdir -p "$src"

if [ $# -gt 0 ]; then patches="$*"; else patches=$(ls "$here"/*.patch); fi

# Tracked and untracked-but-not-ignored files: the tree as it stands.
(cd "$repo" && git ls-files -co --exclude-standard -z | xargs -0 tar -cf -) |
  (cd "$src" && tar -xf -)

exe="$src/_build/default"

build() {
  (cd "$src" && dune build ./bin/rapilog_sim.exe ./bench/crash_surface.exe \
    ./test/test_main.exe) >"$work/build.log" 2>&1
}

# Each gate prints "killed" or "survived" (or "error" when it could not
# reach a verdict at all, which also counts as red).
gate_steady() {
  for args in "power-cut -m rapilog" "crash -m rapilog" \
    "power-cut -m rapilog-quorum --replicas 4 --quorum 2"; do
    # shellcheck disable=SC2086
    if ! "$exe/bin/rapilog_sim.exe" $args >"$work/steady.log" 2>&1; then
      echo killed
      return
    fi
  done
  echo survived
}

gate_replay() {
  if "$exe/bench/crash_surface.exe" --quick --check \
    --output "$work/replay.json" >"$work/replay.log" 2>&1; then
    echo survived
  else
    echo killed
  fi
}

gate_journal() {
  rm -f "$work/journal.json"
  "$exe/bench/crash_surface.exe" --quick --journal \
    --output "$work/journal.json" >"$work/journal.log" 2>&1
  python3 - "$work/journal.json" <<'EOF'
import json, sys
try:
    sweep = json.load(open(sys.argv[1]))["journal"]["sweep"]
except Exception:
    print("error")
    sys.exit()
print("killed" if sweep["contract_breaks"] > 0 or sweep["lost_total"] > 0 else "survived")
EOF
}

gate_model() {
  if "$exe/test/test_main.exe" test rapilog.model_check >"$work/model.log" 2>&1
  then
    echo survived
  else
    echo killed
  fi
}

gate_framing() {
  if "$exe/test/test_main.exe" test dbms.log_record_prop >"$work/framing.log" 2>&1
  then
    echo survived
  else
    echo killed
  fi
}

gates="steady replay journal model framing"
failed=0
rows=""

row() {
  printf '%-22s' "$1"
  shift
  for cell in "$@"; do printf ' %-9s' "$cell"; done
  printf '\n'
}

if ! build; then
  cat "$work/build.log"
  echo "mutants: the unmodified tree does not build" >&2
  exit 1
fi
clean=""
for g in $gates; do
  v=$("gate_$g")
  clean="$clean $v"
  if [ "$v" != survived ]; then
    echo "mutants: the unmodified tree fails the $g gate" >&2
    failed=1
  fi
done
# shellcheck disable=SC2086
rows=$(row "(none)" $clean)

for p in $patches; do
  name=$(basename "$p" .patch)
  killers=$(sed -n 's/^# killed-by: *//p' "$p")
  if ! (cd "$src" && patch -p1 --forward --dry-run <"$p" &&
    patch -p1 --forward --quiet <"$p") >"$work/patch.log" 2>&1
  then
    echo "mutants: $name no longer applies:" >&2
    cat "$work/patch.log" >&2
    failed=1
    continue
  fi
  cells=""
  if build; then
    for g in $gates; do
      v=$("gate_$g")
      case " $killers " in
        *" $g "*)
          if [ "$v" = survived ]; then
            echo "mutants: $name survives the $g gate named as its killer" >&2
            failed=1
          fi
          v="$v*"
          ;;
      esac
      cells="$cells $v"
    done
  else
    # A mutant that does not compile proves nothing.
    echo "mutants: $name does not build:" >&2
    cat "$work/build.log" >&2
    failed=1
    cells=""
    for g in $gates; do cells="$cells no-build"; done
  fi
  # shellcheck disable=SC2086
  rows="$rows
$(row "$name" $cells)"
  (cd "$src" && patch -p1 -R --quiet <"$p") || {
    echo "mutants: could not revert $name" >&2
    exit 1
  }
done

row "mutant" $gates
echo "$rows"
echo "(* = a gate the patch names as its killer)"
exit $failed
