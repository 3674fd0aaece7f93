#!/usr/bin/env python3
"""Builds the end-to-end benchmark (once per checkout) and runs it.

    python3 perfbench/run.py --workload acq-multi --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), span files of traced runs to
$CARGO_TARGET_DIR/traces. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero, without a result,
when the library sources or the toolchain are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources next to perfbench/ (src/)",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(target, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [binary] + sys.argv[1:] + ["--out-dir", os.path.join(target, "traces")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
