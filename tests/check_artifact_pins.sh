#!/bin/sh
# Check that the pinned bench artifacts are unchanged: for every row of
# tests/artifact_pins.txt, run the row's bench command in a fresh
# directory and compare the sha256 of the artifact it writes with the
# pinned one.
#
# Usage, from anywhere in a checkout:
#
#     tests/check_artifact_pins.sh [BUILD_DIR]
#
# BUILD_DIR (default: build) must hold the built bench binaries.
# Prints one line per row and exits 1 naming every artifact that moved
# (or was not written); a moved row also prints the run's exit status
# and the tail of its output.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd) || exit 1
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
moved=""
while read -r artifact want bin args; do
    case "$artifact" in '' | '#'*) continue ;; esac
    dir="$work/$artifact"
    mkdir "$dir"
    # $args is split on purpose: it holds the command's flags.
    (cd "$dir" && "$build/bench/$bin" $args < /dev/null > run.log 2>&1)
    status=$?
    got=""
    if [ -f "$dir/$artifact" ]; then
        got=$(sha256sum "$dir/$artifact" | cut -d' ' -f1)
    fi
    if [ "$got" = "$want" ]; then
        echo "ok     $artifact ($bin $args): $got"
    else
        echo "MOVED  $artifact ($bin $args, exit $status):" \
             "${got:-not written} (pinned $want)"
        tail -n 5 "$dir/run.log" | sed 's/^/       /'
        moved="$moved $artifact"
    fi
done < "$root/tests/artifact_pins.txt"
if [ -n "$moved" ]; then
    echo "bench artifacts moved:$moved"
    exit 1
fi
echo "all bench artifact pins match"
