#!/usr/bin/env python3
"""Deleted-name lint: names that a simplification deleted must not return.

Each row of DELETED names one mechanism the tree dropped because another
already did its job, the change that dropped it, the names that must not
come back and where to look for them. A row reads like the grep it
replaces: an extended regular expression (or, with `fixed`, a literal),
optionally case-insensitive, searched line by line through every file
under its paths (directories recursively, files and globs as given).

Usage:
    tools/lint_deleted.py [--root DIR]   # lint the tree (default: repo root)
    tools/lint_deleted.py --self-test    # prove every row fires on a seeded
                                         # match, and only inside its paths

Exit status: 0 clean, 1 findings (or a failed self-test), 2 usage error.
"""

import argparse
import pathlib
import re
import sys
import tempfile
from dataclasses import dataclass

# The documents and code every row scans unless it says otherwise.
CODE = ("src", "tests", "bench", "tools", "README.md")
CODE_AND_BENCH_REFS = CODE + ("BENCH_*.json",)


@dataclass(frozen=True)
class Row:
    what: str            # the deleted mechanism, as findings name it
    deleted_by: str      # the change that deleted it
    pattern: str         # extended regex, or a literal when `fixed`
    paths: tuple         # directories, files or globs under the root
    ignore_case: bool = False
    fixed: bool = False

    def regex(self):
        text = re.escape(self.pattern) if self.fixed else self.pattern
        return re.compile(text, re.IGNORECASE if self.ignore_case else 0)


DELETED = (
    Row("snapshot resume protocol",
        "Two resume protocols, not three",
        r"kSnapshot|SessionSnapshot|SessionResumeSnapshot|CapturePreRound|"
        r"RestoreSnapshot|QHORN_RESUME_MODE",
        CODE_AND_BENCH_REFS, ignore_case=True),
    Row("parallel evaluation or work-stealing executor",
        "One queue, no ParallelFor",
        r"ParallelFor|kParallelGrain|RunOneHelperTask|steals_|"
        r"OracleBatchParallel|kExecutorSleep",
        CODE_AND_BENCH_REFS),
    Row("level-triggered poll",
        "Deliver each pending round once",
        r"retained_announcements|live_announcements_|RoundAnnouncement|"
        r"MpscStack|kRouterPoll",
        CODE),
    Row("durable id maps or relaxed fsync policies",
        "One id space from WAL to shard",
        r"to_internal_|to_external_|MapIds|InternalOf|RouterShardFor|"
        r"OpenPendingOnShard|kDurableRouter|kEveryN|fsync_every_n",
        CODE),
    Row("duplicate transcript",
        "Store each asked question once",
        r"answered_entries|cache_questions",
        CODE),
    Row("history copy (a pipeline in src/ recording the history again)",
        "Store the session history as positions into the question log",
        "Push<TranscriptOracle>",
        ("src",), fixed=True),
    Row("direct and simulated opens, shared compiled-query cache or "
        "AsyncOracle",
        "One way to answer a round",
        r"OpenSimulated|OpenAt\b|AsyncOracle|CompiledQueryCache|kCacheStripe|"
        r"compiled_hits|compiled_misses|RunSession\b",
        CODE_AND_BENCH_REFS),
    Row("replay resume mode or reader/writer lock",
        "One resume protocol",
        r"kReplay|replay_resume|RunPendingSessionFiber|staged_questions|"
        r"SharedMutex|ReaderLock|WriterLock",
        CODE),
    Row("sharding facade",
        "One router",
        r"ShardedRouter|BasicRouterEndpoint|sharded_router",
        CODE),
    Row("parked-round copies",
        "One copy of a parked round",
        r"TakePending|StageResumeAnswers|staged_answers|has_pending\(|"
        r"set_session_id",
        CODE),
    Row("session restart plumbing",
        "One owner for the correction restart",
        r"ResetWithUserReplay|continuation_mode_|pipeline_live|OraclePipeline|"
        r"OracleStage|OracleBackend|oracle/pipeline\.h",
        CODE),
    Row("parked-stack trim",
        "A park that costs two stack pointers",
        r"TrimColdStack|trimmed_bytes",
        CODE),
    Row("second correction path (a replay above the question cache)",
        "One §5 correction",
        r"kPrefixTag|corrected_prefix_|retired_replayed|history_rounds_",
        CODE),
)

# The table names every deleted name, so the lint never scans itself.
SELF = pathlib.Path("tools") / "lint_deleted.py"


def files_under(root, spec):
    """The regular files `spec` names under `root`, in a stable order."""
    if any(c in spec for c in "*?["):
        matches = sorted(root.glob(spec))
    else:
        matches = [root / spec]
    for match in matches:
        if match.is_dir():
            yield from (p for p in sorted(match.rglob("*")) if p.is_file())
        elif match.is_file():
            yield match


def lint_row(root, row):
    """(path, line number, line) for every line under the row's paths that
    its pattern matches."""
    regex = row.regex()
    findings = []
    for path in (p for spec in row.paths for p in files_under(root, spec)):
        rel = path.relative_to(root)
        if rel == SELF:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), start=1):
            if regex.search(line):
                findings.append((rel.as_posix(), lineno, line.strip()))
    return findings


def lint_tree(root):
    """{row: findings} for every row that fires."""
    return {row: found for row in DELETED if (found := lint_row(root, row))}


def report(fired):
    for row, findings in fired.items():
        for rel, lineno, line in findings:
            print(f"{rel}:{lineno}: {line}")
        print(f"lint_deleted: the deleted {row.what} is referenced again "
              f"(deleted by \"{row.deleted_by}\")\n")


def sample(row):
    """A line the row's pattern matches: its first alternative, unescaped
    (and in lower case for a case-insensitive row)."""
    if row.fixed:
        return row.pattern
    first = row.pattern.split("|")[0].replace(r"\b", "")
    first = re.sub(r"\\(.)", r"\1", first)
    return first.lower() if row.ignore_case else first


def self_test():
    """Each row fires on one seeded match inside its first path, and no row
    fires on the same line outside every path it scans."""
    failures = []
    for row in DELETED:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            spec = row.paths[0]
            seeded = root / (spec if "." in spec else f"{spec}/seeded.cc")
            seeded.parent.mkdir(parents=True, exist_ok=True)
            seeded.write_text(f"int x;  // {sample(row)}\n", encoding="utf-8")
            outside = root / "docs" / "seeded.cc"
            outside.parent.mkdir(parents=True)
            outside.write_text(f"{sample(row)}\n", encoding="utf-8")
            found = lint_row(root, row)
            rel = seeded.relative_to(root).as_posix()
            if found != [(rel, 1, f"int x;  // {sample(row)}")]:
                failures.append(f"{row.what}: seeded {rel} gave {found}")
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "src").mkdir()
        (root / "src" / "clean.cc").write_text(
            "void Restart(size_t log_index);\n", encoding="utf-8")
        if lint_tree(root):
            failures.append("a clean tree fired a row")
    if failures:
        print("lint_deleted self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"lint_deleted self-test: ok ({len(DELETED)} rows each fired on "
          "their seeded match and nowhere else; a clean tree passed)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root to lint (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every row against a seeded fixture instead "
                             "of the tree")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not args.root.is_dir():
        print(f"error: no such directory: {args.root}", file=sys.stderr)
        return 2
    fired = lint_tree(args.root.resolve())
    report(fired)
    if not fired:
        print(f"lint_deleted: clean ({len(DELETED)} rows)")
    return 1 if fired else 0


if __name__ == "__main__":
    sys.exit(main())
