#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 simbench/run.py --workload mm_dense --seed 42 --seconds 30 --trace 0

The library in src/ and the simbench program are built into
.bench_build/ (configure and build output go to stderr). The program's
stdout is passed through; its last line is the JSON result. With
--trace 1 the spans of the traced passes are written to
.bench_build/spans/<workload>-seed<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: no simulator sources in %s/src" % ROOT)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("simbench: build failed: " + " ".join(cmd))


def spans_path(argv):
    """Where a traced run writes its spans; None for an untraced run."""
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") != "1":
        return None
    os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
    name = "%s-seed%s.json" % (opts.get("--workload", ""),
                               opts.get("--seed", "42"))
    return os.path.join(BUILD, "spans", name)


def main():
    argv = sys.argv[1:]
    build()
    cmd = [os.path.join(BUILD, "simbench")] + argv
    spans = spans_path(argv)
    if spans:
        cmd += ["--spans", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
