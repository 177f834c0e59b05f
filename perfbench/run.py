#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hetero_bulk|broker_echo \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the pbio libraries from src/ plus the driver) as a Release build
under $CARGO_TARGET_DIR/perfbench, defaulting to .bench_build/perfbench; later
calls only check that the build is current. Build output goes to stderr.
The driver's standard output is passed through: one line per metric, then,
as the last line, the JSON result. The exit code is the driver's.
"""
import os
import subprocess
import sys

WORKLOADS = ("hetero_bulk", "broker_echo")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {}
    if len(argv) % 2 != 0:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    for key, val in zip(argv[::2], argv[1::2]):
        if key not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown flag " + key)
        opts[key[2:]] = val
    if opts.get("workload") not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    for key in ("seed", "seconds"):
        if not opts.get(key, "1").isdigit():
            fail("--%s takes a whole number" % key)
    if opts.get("trace", "0") not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return opts


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no pbio sources at %s/src: run from a full checkout" % root)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "pbio_perfbench",
                    "-j", "4"], stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "pbio_perfbench")


def main():
    opts = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err, 1)
    cmd = [binary, "--workload", opts["workload"],
           "--seed", opts.get("seed", "1"),
           "--seconds", opts.get("seconds", "20"),
           "--trace", opts.get("trace", "0")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
