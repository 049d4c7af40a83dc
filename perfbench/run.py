#!/usr/bin/env python3
"""Build and run the LEO end-to-end benchmark.

    python3 perfbench/run.py --workload <fleet_onboard|fleet_steady|phased_trace>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--size full|smoke] [--threads 1|2]

Run from the repository root (any working directory works; paths are
resolved from this file). The first call configures and builds
perfbench/ (the LEO libraries from src/ plus leo_perfbench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls rebuild incrementally. Build output goes to build.log there.
leo_perfbench's stdout passes through unchanged: an env line, then the
result object as the last line. Exits non-zero without printing a
result when the sources are missing, the build fails or
leo_perfbench fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must finish within three minutes; stop it a little before.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "leo_perfbench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write("perfbench: build failed, see %s\n"
                                 % log_path)
                return None
    return os.path.join(out, "leo_perfbench")


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: %s has no src/; run from a full "
                         "checkout\n" % ROOT)
        return 2
    exe = build(build_dir())
    if exe is None:
        return 1
    try:
        proc = subprocess.run([exe] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: leo_perfbench exceeded %d s\n"
                         % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
