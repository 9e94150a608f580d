#!/bin/sh
# Regenerate every paper figure and table, and the fault campaign; see
# EXPERIMENTS.md.
#
# Usage: ./run_benches.sh [--jobs N]
# The job count is forwarded to every figure, table and campaign binary
# (they spread their experiment grids over N worker threads; output is
# byte-identical for any N). Defaults to LAZYGPU_JOBS or the host core
# count. The other tools in build/bench (perf_engine, trace_export,
# verif_fuzz) take their own arguments and are run by hand.
#
# A failing bench does not stop the batch: every binary runs, failures
# are collected, and the script exits nonzero with a FAILED summary so
# the partial artifacts are still usable (re-run individual benches with
# --resume to fill in the missing cells).
jobs_flag=""
if [ "$1" = "--jobs" ] && [ -n "$2" ]; then
    jobs_flag="--jobs $2"
fi
failed=""
for b in build/bench/fig* build/bench/tbl* build/bench/fault_campaign; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "===== $b ====="
    "$b" $jobs_flag
    status=$?
    if [ $status -ne 0 ]; then
        echo "*** $b exited with status $status"
        failed="$failed $b"
    fi
    echo
done
if [ -n "$failed" ]; then
    echo "FAILED benches:"
    for b in $failed; do
        echo "  $b"
    done
    exit 1
fi
