#!/usr/bin/env python3
"""Builds and runs the end-to-end session benchmark.

Run from the root of a qhorn source tree:

    python3 bench_e2e/run.py --workload durable_disk --seed 1 --seconds 10 --trace 0

It configures and builds bench_e2e/ (Release) into the build directory
($CARGO_TARGET_DIR if set, else .bench_build), runs the e2e_bench binary with
the given arguments, and forwards its output; the last stdout line is the
result JSON. The durable_disk WAL lives in a per-invocation directory inside
the build directory, removed on every exit path. Exits non-zero without a
result when the tree has no qhorn sources to build.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "e2e")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "e2e_bench",
                "-j", jobs]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "e2e_bench")


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no qhorn source tree at %s; nothing to build" % ROOT)
        return 2
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if binary is None:
        return 2

    # A terminated wrapper still stops the benchmark and removes its WAL.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wal_parent = os.path.join(build_root, "wal-%d" % os.getpid())
    os.makedirs(wal_parent, exist_ok=True)
    proc = subprocess.Popen([binary] + argv + ["--wal-parent", wal_parent])
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        code = 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(wal_parent, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
