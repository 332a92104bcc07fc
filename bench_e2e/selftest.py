#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy size.

Run from the root of the source tree:

    python3 bench_e2e/selftest.py

Checks, for every workload (durable_disk too, which BENCHMARK.json does not
gate):
  * a toy run with --trace 0 passes its correctness check and prints exactly
    the end_to_end metrics, and one with --trace 1 exactly the per_layer
    metrics, each with its unit;
  * the run context (nproc, cpu, kernel, build, simd, wal, seed) is printed;
  * the traced run leaves at most 10% of the driver's time unattributed;
  * no WAL directory is left behind.
Then checks that one flipped answer bit, injected through the benchmark's
user boundary, fails the fingerprint check with a --seed= repro line (and
still leaves no WAL directory), and that a tree holding only the benchmark
exits non-zero without a result.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
CONTEXT_KEYS = ["seed", "nproc", "cpu", "kernel", "build", "simd", "wal"]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run(["python3", os.path.join(cwd, "bench_e2e", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done, result


def leftover_wal_dirs():
    return glob.glob(os.path.join(BUILD, "wal-*")) + glob.glob(
        os.path.join(BUILD, "wal-*", "qhorn-e2e-*"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    toy = ["--scale", "toy", "--seconds", "2"]

    for workload in ("durable_disk", "learn_compute", "parked_fleet"):
        for trace, want in (("0", e2e), ("1", layers)):
            done, result = run(["--workload", workload, "--seed", "3",
                                "--trace", trace] + toy)
            name = "%s --trace %s" % (workload, trace)
            check(done.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0,
                  name + ": exits 0 and passes its correctness check")
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, name + ": prints exactly its metrics and units")
            for key in CONTEXT_KEYS:
                check(re.search(r"^  %s\s" % key, done.stdout, re.M) is not None,
                      name + ": prints run context '%s'" % key)
            if trace == "1":
                share = result["metrics"]["workload.driver_unattributed_share"]
                check(share["value"] <= 0.10,
                      name + ": unattributed driver time %.1f%% <= 10%%"
                      % (100 * share["value"]))
            check(not leftover_wal_dirs(), name + ": no WAL directory left")

    done, result = run(["--workload", "durable_disk", "--seed", "3",
                        "--trace", "0", "--inject-flip"] + toy)
    check(done.returncode != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          "flipped answer bit: run fails its correctness check")
    check("diverged from the synchronous reference" in done.stdout
          and "--seed=3" in done.stdout,
          "flipped answer bit: failure names the session and the --seed= repro")
    check(not leftover_wal_dirs(), "flipped answer bit: no WAL directory left")

    bare = tempfile.mkdtemp()
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench_e2e"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done, result = run(["--workload", "durable_disk", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
        check(done.returncode != 0 and result is None,
              "benchmark-only tree: exits non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("\n%d check(s) failed" % len(failures) if failures
          else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
