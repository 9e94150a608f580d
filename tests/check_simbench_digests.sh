#!/bin/sh
# Check that simulated results are unchanged: for every row of
# tests/simbench_digests.txt, run one simbench pass of that workload and
# seed and compare the digest it prints with the pinned one.
#
# Usage, from anywhere in a checkout:
#
#     tests/check_simbench_digests.sh
#
# Prints one line per row and exits 1 naming every row whose digest
# moved (or that printed none). simbench is built into .bench_build/ by
# its own runner; the build log goes to .bench_build/digest-check.log.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root" || exit 1
mkdir -p .bench_build
log=.bench_build/digest-check.log
: > "$log"
moved=""
while read -r workload seed want; do
    case "$workload" in '' | '#'*) continue ;; esac
    got=$(python3 simbench/run.py --workload "$workload" --seed "$seed" \
              --seconds 1 --trace 0 < /dev/null 2>> "$log" |
          sed -n 's/^digest \([0-9a-f]*\) .*/\1/p')
    if [ "$got" = "$want" ]; then
        echo "ok     $workload seed $seed: $got"
    else
        echo "MOVED  $workload seed $seed: ${got:-no digest} (pinned $want)"
        moved="$moved $workload/seed$seed"
    fi
done < tests/simbench_digests.txt
if [ -n "$moved" ]; then
    echo "simbench digests moved:$moved"
    echo "(build and run log: $log)"
    exit 1
fi
echo "all simbench digests match"
