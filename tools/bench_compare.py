#!/usr/bin/env python3
"""Compare two bench_micro JSON files and fail on headline regressions.

CI machines differ from the reference box that produced the committed
BENCH_micro.json, so raw nanoseconds do not transfer. What does transfer is
the *pair ratio*: every headline kernel ships as an optimized/baseline pair
measured on identical workloads in the same process (compiled vs legacy
evaluation, batched vs sequential oracle rounds, worklist vs fixpoint
closure). The ratio baseline_time / optimized_time is a machine-independent
speedup; this tool fails when a candidate run's speedup falls more than
--threshold below the reference's.

    tools/bench_compare.py BENCH_micro.json BENCH_micro.ci.json

The reference argument may instead be a *manifest* — a JSON file with a
"references" list, each entry naming the runner class it was recorded on:

    {"references": [
        {"num_cpus": 1, "simd": "avx512", "path": "BENCH_micro.json"},
        {"num_cpus": 4, "simd": "avx512", "path": "BENCH_micro.4cpu.json"}
    ]}

    tools/bench_compare.py BENCH_refs.json BENCH_micro.ci.json

The entry matching the candidate's (num_cpus, qhorn_simd) context is used;
recording paths resolve relative to the manifest. No matching entry is a
hard failure — falling back to a mismatched recording would skip every
concurrency-dependent pair and gate nothing while pretending to.

For same-machine comparisons (e.g. regenerating the committed baseline)
--absolute additionally diffs raw cpu_time of identically named benchmarks.

Exit status: 0 clean, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import os
import statistics
import sys

# (optimized, baseline) benchmark pairs; the second column is the in-tree
# reference implementation measured on the identical workload.
HEADLINE_PAIRS = [
    ("BM_EvaluateQuery/16", "BM_EvaluateQueryLegacy/16"),
    ("BM_EvaluateQuery/64", "BM_EvaluateQueryLegacy/64"),
    ("BM_HornClosureChain/16", "BM_HornClosureChainLegacy/16"),
    ("BM_HornClosureChain/64", "BM_HornClosureChainLegacy/64"),
    ("BM_OracleBatchBatched/16", "BM_OracleBatchSequential/16"),
    ("BM_OracleBatchBatched/256", "BM_OracleBatchSequential/256"),
    # One-question rounds must stay within noise of a plain IsAnswer — the
    # contract that let the learners drop their singleton short-circuits.
    ("BM_OracleBatchBatched/1", "BM_OracleBatchSequential/1"),
    # Concurrency pair: the identical fleet on the executor vs one lane,
    # compared on *wall-clock* (the work runs on pool threads, so the
    # benchmark thread's cpu_time under-counts — these benchmarks use
    # UseRealTime and load_times() reads real_time for them). The upside is
    # machine-dependent (a 1-core runner measures ~1.0×), so the ratio gate
    # only guards against the parallel path *regressing* relative to the
    # committed reference machine's ratio.
    ("BM_ServiceThroughput/16/real_time", "BM_ServiceSequential/16/real_time"),
    # Open-sessions-vs-lanes: 64 pending (suspend/replay) sessions vs the
    # identical direct fleet on the same 4 lanes. The ratio is *below* 1x
    # by design — it prices the continuation machinery — and the gate only
    # guards it against regressing further.
    ("BM_ServiceOpenSessions/64/real_time",
     "BM_ServiceOpenSessionsDirect/64/real_time"),
    # Resume-protocol pair: fiber resume switches into the parked frame
    # (O(1) compute per resume, nothing re-served) vs full-prefix replay
    # (O(rounds²) questions re-served). Both run one session on one lane,
    # so the ratio is machine-independent; it widens with depth, hence both
    # arms. Not concurrency-dependent: a single lane is a single lane
    # everywhere.
    ("BM_SessionResumeFiber/8/real_time",
     "BM_SessionResumeReplay/8/real_time"),
    ("BM_SessionResumeFiber/64/real_time",
     "BM_SessionResumeReplay/64/real_time"),
    # Canonical-form dedup: hashed CanonicalForm keys vs ToString() keys.
    ("BM_CanonicalDedup/64", "BM_CanonicalDedupLegacy/64"),
    # Router sharding: four driver threads hammering a mixed
    # open/provide/poll workload over 4096 sessions behind an 8-shard
    # facade vs the identical workload behind the 1-shard (global-mutex)
    # facade. The upside needs real cores — on a 1-cpu runner the ratio
    # sits near 1.0× and the gate only pins it there.
    ("BM_RouterContention/4096/8/real_time",
     "BM_RouterContention/4096/1/real_time"),
]

# Benchmarks whose absolute time is also checked under --absolute (the
# end-to-end learner loops the README quotes).
ABSOLUTE_HEADLINES = [
    "BM_EvaluateQuery/64",
    "BM_OracleBatchBatched/256",
    "BM_Qhorn1LearnEndToEnd/64",
    "BM_RpLearnEndToEnd/24",
    "BM_BuildVerificationSet/32",
]


# Pairs whose ratio depends on effective parallelism (the executor can
# only beat one lane when it has more than one). They are compared only
# when reference and candidate agree on both num_cpus and the benchmark's
# own "lanes" counter (which tracks QHORN_THREADS) — otherwise a baseline
# recorded wide would fail a narrower runner spuriously, and a 1-lane
# baseline would gate nothing while pretending to.
CONCURRENCY_DEPENDENT = {
    "BM_ServiceThroughput/16/real_time",
    "BM_ServiceOpenSessions/64/real_time",
    "BM_RouterContention/4096/8/real_time",
}


def load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_reference(path, cand_doc):
    """Resolves the reference document for this candidate.

    Returns (reference_doc, declared_num_cpus). `path` is either a plain
    bench_micro JSON (declared_num_cpus is None — its own context is
    authoritative) or a manifest with a "references" list, in which case
    the entry matching the candidate's (num_cpus, qhorn_simd) context is
    loaded, relative to the manifest's directory. The declared num_cpus is
    returned alongside because a recording can legitimately stand in for a
    runner class it was not measured on (a conservative floor recorded
    elsewhere); the manifest's declaration, not the recording's context,
    says which candidates it gates.
    """
    doc = load_doc(path)
    if "references" not in doc:
        return doc, None
    ctx = cand_doc.get("context", {})
    cand_cpus = ctx.get("num_cpus")
    cand_simd = ctx.get("qhorn_simd")
    for entry in doc["references"]:
        if (
            entry.get("num_cpus") == cand_cpus
            and entry.get("simd") == cand_simd
        ):
            ref_path = os.path.join(
                os.path.dirname(os.path.abspath(path)), entry["path"]
            )
            print(
                f"bench_compare: manifest matched {entry['path']} "
                f"(num_cpus={cand_cpus}, simd={cand_simd})"
            )
            return load_doc(ref_path), entry.get("num_cpus")
    available = ", ".join(
        f"(num_cpus={e.get('num_cpus')}, simd={e.get('simd')})"
        for e in doc["references"]
    )
    print(
        f"bench_compare: FAILED — no manifest entry matches the candidate "
        f"(num_cpus={cand_cpus}, simd={cand_simd}); recorded classes: "
        f"{available}. Record a reference for this runner class instead of "
        f"gating against a mismatched one.",
        file=sys.stderr,
    )
    sys.exit(1)


def load_times(doc):
    """name -> median time over repetitions (robust to a noisy rep)."""
    samples = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        # Benchmarks registered with UseRealTime (the concurrency pairs)
        # carry a /real_time name suffix; wall-clock is their meaningful
        # metric — the work happens on pool threads.
        metric = "real_time" if b["name"].endswith("/real_time") else "cpu_time"
        samples.setdefault(b["name"], []).append(float(b[metric]))
    return {name: statistics.median(ts) for name, ts in samples.items()}


def load_lanes(doc):
    """name -> the benchmark's self-reported 'lanes' counter, if any."""
    lanes = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        if "lanes" in b:
            lanes[b["name"]] = b["lanes"]
    return lanes


def pair_speedup(times, fast, slow):
    if fast not in times or slow not in times:
        return None
    if times[fast] <= 0:
        return None
    return times[slow] / times[fast]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reference", help="committed baseline JSON")
    parser.add_argument("candidate", help="freshly measured JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when candidate speedup (or --absolute time) regresses by "
        "more than this factor (default 1.25 = 25%%)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also compare raw cpu_time of headline benchmarks "
        "(same-machine runs only)",
    )
    args = parser.parse_args()

    cand_doc = load_doc(args.candidate)
    ref_doc, declared_cpus = load_reference(args.reference, cand_doc)
    ref = load_times(ref_doc)
    cand = load_times(cand_doc)
    ref_lanes = load_lanes(ref_doc)
    cand_lanes = load_lanes(cand_doc)
    ref_cpus = (
        declared_cpus
        if declared_cpus is not None
        else ref_doc.get("context", {}).get("num_cpus")
    )
    cand_cpus = cand_doc.get("context", {}).get("num_cpus")
    failures = []
    checked = 0
    checked_pairs = 0
    skipped_pairs = []

    for fast, slow in HEADLINE_PAIRS:
        if fast in CONCURRENCY_DEPENDENT and (
            ref_cpus != cand_cpus
            or ref_lanes.get(fast) != cand_lanes.get(fast)
        ):
            reason = (
                f"reference {ref_cpus} cpus / {ref_lanes.get(fast)} lanes, "
                f"candidate {cand_cpus} / {cand_lanes.get(fast)}"
            )
            print(
                f"{'skipped':>10}  {fast:<34} concurrency-dependent pair "
                f"({reason})"
            )
            skipped_pairs.append((fast, reason))
            continue
        ref_speedup = pair_speedup(ref, fast, slow)
        cand_speedup = pair_speedup(cand, fast, slow)
        if cand_speedup is None:
            # A missing pair in the candidate is itself a regression: the
            # kernel was renamed or dropped without updating the tool.
            failures.append(f"{fast}: pair missing from candidate run")
            continue
        # Pairs newly added to the tree have no committed reference yet;
        # hold them to "the optimized side must not lose to its baseline".
        floor = (ref_speedup / args.threshold) if ref_speedup else 1.0 / args.threshold
        checked += 1
        checked_pairs += 1
        status = "ok" if cand_speedup >= floor else "REGRESSION"
        print(
            f"{status:>10}  {fast:<34} speedup {cand_speedup:6.2f}x "
            f"(reference {ref_speedup:.2f}x, floor {floor:.2f}x)"
            if ref_speedup
            else f"{status:>10}  {fast:<34} speedup {cand_speedup:6.2f}x "
            f"(no reference, floor {floor:.2f}x)"
        )
        if cand_speedup < floor:
            failures.append(
                f"{fast}: speedup {cand_speedup:.2f}x below floor {floor:.2f}x"
            )

    if args.absolute:
        for name in ABSOLUTE_HEADLINES:
            if name not in ref or name not in cand:
                continue
            checked += 1
            ratio = cand[name] / ref[name]
            status = "ok" if ratio <= args.threshold else "REGRESSION"
            print(
                f"{status:>10}  {name:<34} {cand[name]:10.1f} ns "
                f"(reference {ref[name]:.1f} ns, {ratio:.2f}x)"
            )
            if ratio > args.threshold:
                failures.append(f"{name}: {ratio:.2f}x slower than reference")

    # Skips must be loud and can never be total: a gate that skipped every
    # headline pair would "pass" having gated nothing (exactly what happens
    # when reference and candidate disagree on num_cpus across the board).
    if skipped_pairs:
        print(f"\nbench_compare: {len(skipped_pairs)} pair(s) skipped:")
        for name, reason in skipped_pairs:
            print(f"  - {name}: {reason}")
    if not checked_pairs:
        failures.append(
            "every headline pair was skipped — the gate checked nothing "
            "(re-record the reference on a matching runner class)"
        )
    # (There is no separate "nothing comparable" exit path: checked == 0
    # implies checked_pairs == 0, which is already a failure above.)
    if failures:
        print("\nbench_compare: FAILED")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print(f"\nbench_compare: {checked} headline checks clean")


if __name__ == "__main__":
    main()
