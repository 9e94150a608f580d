#!/bin/sh
# Check that simulated results are unchanged: for every row of
# tests/simbench_digests.txt, run one simbench pass of that workload and
# seed and compare the digest it prints with the pinned one.
#
# Usage, from anywhere in a checkout:
#
#     tests/check_simbench_digests.sh [SIMBENCH]
#
# SIMBENCH is an optional prebuilt simbench binary, such as a sanitizer
# build. Without one, simbench is built into .bench_build/ by its own
# runner, simbench/run.py. Prints one line per row and exits 1 naming
# every row whose digest moved, that printed none, or whose run exited
# nonzero (a sanitizer report, say); the build and run log goes to
# .bench_build/digest-check.log.
set -u
bin=""
if [ $# -gt 0 ]; then
    bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1") || exit 1
    [ -x "$bin" ] || { echo "not an executable: $1" >&2; exit 1; }
fi
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 1
mkdir -p .bench_build
log=.bench_build/digest-check.log
: > "$log"

# One pass of workload $1 at seed $2; its stdout.
pass() {
    if [ -n "$bin" ]; then
        "$bin" --workload "$1" --seed "$2" --seconds 1 --trace 0
    else
        python3 simbench/run.py --workload "$1" --seed "$2" \
            --seconds 1 --trace 0
    fi
}

bad=""
while read -r workload seed want; do
    case "$workload" in '' | '#'*) continue ;; esac
    out=$(pass "$workload" "$seed" < /dev/null 2>> "$log")
    rc=$?
    got=$(printf '%s\n' "$out" | sed -n 's/^digest \([0-9a-f]*\) .*/\1/p')
    if [ "$rc" -ne 0 ]; then
        echo "FAILED $workload seed $seed: exit status $rc"
        bad="$bad $workload/seed$seed"
    elif [ "$got" = "$want" ]; then
        echo "ok     $workload seed $seed: $got"
    else
        echo "MOVED  $workload seed $seed: ${got:-no digest} (pinned $want)"
        bad="$bad $workload/seed$seed"
    fi
done < tests/simbench_digests.txt
if [ -n "$bad" ]; then
    echo "simbench digest rows failed:$bad"
    echo "(build and run log: $log)"
    exit 1
fi
echo "all simbench digests match"
