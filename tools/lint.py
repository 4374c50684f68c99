#!/usr/bin/env python3
"""Repo-invariant linter for SimpleDW.

Enforces the concurrency and determinism conventions the compiler cannot
see (DESIGN.md section 4f):

  wall-clock     Direct use of std::chrono::{steady,system,high_resolution}
                 _clock, rand() or std::random_device anywhere in src/
                 except src/sim/ (sim::Stopwatch is the one sanctioned
                 wall-clock wrapper; bench/ is exempt by scope).
  naked-thread   std::thread / std::jthread construction in src/ outside
                 common/thread_pool.* (all parallelism goes through the
                 shared pool so slice fan-out stays bounded and joinable).
                 Qualified statics (std::thread::hardware_concurrency)
                 are allowed.
  log-under-lock SDW_LOG while a MutexLock / lock_guard / unique_lock is
                 held in an enclosing scope (the log sink formats and
                 locks on its own; logging under a lock stretches the
                 critical section and risks lock-order cycles).
                 Heuristic brace-depth scan; suppress intentional cases.
  metric-name    String literals passed to Registry::Global().counter/
                 gauge/histogram must match sdw_<module>_<name>
                 (lower_snake, at least two segments) so the stv_metrics
                 namespace stays grep-able and collision-free. The same
                 rule covers MakeCacheMetrics("...") prefixes — they
                 expand to <prefix>_hits / _misses / ... counters, so a
                 bad prefix pollutes the namespace four times over.
  s3-writes      Direct S3 object mutation (PutObject / DeleteObject)
                 outside src/backup/ and src/durability/. Those two
                 modules own the durability contract — blocks +
                 manifests (backup) and the commit log (durability);
                 an S3 write anywhere else can clobber the recovery
                 chain or leave objects the commit-log truncation and
                 backup GC do not know about.
  system-table-doc
                 Every stl_/stv_ table name that appears as a string
                 literal in src/warehouse/system_tables.cc must also
                 appear in DESIGN.md. System tables are user-facing
                 API; an undocumented one is a contract nobody signed.
  bare-no-thread-safety-analysis
                 SDW_NO_THREAD_SAFETY_ANALYSIS without a why-comment
                 on the immediately preceding lines. The escape hatch
                 turns the analysis off for a whole function; the
                 comment must say which invariant the analysis cannot
                 see (the macro's own definition in
                 common/thread_annotations.h is exempt).
  lock-rank-doc  Every LockRank enumerator declared in
                 src/common/lock_rank.h must appear in DESIGN.md's
                 lock-rank table (section 4f). The rank order IS the
                 documented lock hierarchy; an undocumented rank is an
                 ordering constraint nobody can review.

Suppression: append `// lint:allow(<rule>)` to the offending line.

Fixture mode (--check-fixtures) runs every rule over
tests/lint_fixtures/ regardless of path scoping and demands that each
`// lint:expect(<rule>)` line produces exactly that violation and that
no unexpected violations appear — the negative test that proves the
linter still fires.

Exit status: 0 clean, 1 violations (or fixture expectations unmet).
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SOURCE_SUFFIXES = {".cc", ".h"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")
EXPECT_RE = re.compile(r"//\s*lint:expect\(([a-z0-9-]+)\)")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"|(?<![\w:])rand\s*\("
    r"|std::random_device"
)
NAKED_THREAD_RE = re.compile(r"std::j?thread\b(?!::)")
LOCK_DECL_RE = re.compile(
    r"\b(?:common::)?MutexLock\s+\w+\s*\("
    r"|\bstd::lock_guard\s*<"
    r"|\bstd::unique_lock\s*<"
    r"|\bstd::scoped_lock\b"
)
LOG_RE = re.compile(r"\bSDW_LOG\s*\(")
METRIC_CALL_RE = re.compile(
    r"Registry::Global\(\)\s*\.\s*(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"",
    re.DOTALL,
)
METRIC_NAME_RE = re.compile(r"^sdw_[a-z0-9]+(?:_[a-z0-9]+)+$")
CACHE_METRICS_CALL_RE = re.compile(
    r"MakeCacheMetrics\s*\(\s*\"([^\"]*)\"", re.DOTALL
)

S3_WRITE_RE = re.compile(r"(?:->|\.)\s*(?:PutObject|DeleteObject)\s*\(")
S3_WRITE_OWNER_PREFIXES = ("src/backup/", "src/durability/")

SYSTEM_TABLE_FILE = "src/warehouse/system_tables.cc"
SYSTEM_TABLE_NAME_RE = re.compile(r'"(st[lv]_[a-z0-9_]+)"')

NO_TSA_RE = re.compile(r"\bSDW_NO_THREAD_SAFETY_ANALYSIS\b")
NO_TSA_DEFINITION_FILE = "src/common/thread_annotations.h"
# How far above a use the why-comment may sit (a multi-line declaration
# plus its doc block).
NO_TSA_COMMENT_WINDOW = 6

LOCK_RANK_FILE = "src/common/lock_rank.h"
LOCK_RANK_ENUM_RE = re.compile(r"\benum\s+class\s+LockRank\b")
LOCK_RANK_ENUMERATOR_RE = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*=")

COMMENT_RE = re.compile(r"//.*$")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rel(path):
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def strip_comment(line):
    """Drops a trailing // comment (not inside a string literal — good
    enough for this codebase, which has no metrics/locks in macros)."""
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        elif ch == "/" and not in_string and line[i : i + 2] == "//":
            return line[:i]
    return line


def line_allows(lines, lineno, rule):
    m = ALLOW_RE.search(lines[lineno - 1])
    return bool(m and m.group(1) == rule)


def check_wall_clock(path, lines, scoped):
    """wall-clock: only src/sim/ may read real clocks."""
    p = rel(path)
    if scoped and (not p.startswith("src/") or p.startswith("src/sim/")):
        return []
    out = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        m = WALL_CLOCK_RE.search(code)
        if m and not line_allows(lines, i, "wall-clock"):
            out.append(
                Violation(
                    p, i, "wall-clock",
                    f"'{m.group(0).strip()}' outside src/sim/ — use "
                    "sim::Stopwatch (src/sim/stopwatch.h) or take the "
                    "value as a parameter",
                )
            )
    return out


def check_naked_thread(path, lines, scoped):
    """naked-thread: only common/thread_pool.* may spawn threads."""
    p = rel(path)
    if scoped and (
        not p.startswith("src/") or p.startswith("src/common/thread_pool.")
    ):
        return []
    out = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        m = NAKED_THREAD_RE.search(code)
        if m and not line_allows(lines, i, "naked-thread"):
            out.append(
                Violation(
                    p, i, "naked-thread",
                    "std::thread outside common/thread_pool — fan work "
                    "out via ThreadPool::ParallelFor",
                )
            )
    return out


def check_log_under_lock(path, lines, scoped):
    """log-under-lock: SDW_LOG while an RAII lock is live in scope.

    Tracks brace depth per line; an RAII lock declared at depth d is
    considered held until depth drops below d. Lambdas passed while a
    lock is held do run under it at their *definition* site, so a log in
    such a lambda body is (correctly) flagged; lambdas merely defined
    under no lock are not.
    """
    p = rel(path)
    if scoped and not p.startswith("src/"):
        return []
    out = []
    depth = 0
    held = []  # depths at which a lock guard was declared
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if LOCK_DECL_RE.search(code):
            held.append(depth)
        if (
            LOG_RE.search(code)
            and held
            and not line_allows(lines, i, "log-under-lock")
        ):
            out.append(
                Violation(
                    p, i, "log-under-lock",
                    "SDW_LOG while a lock is held — copy state out, "
                    "release, then log",
                )
            )
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while held and depth <= held[-1]:
                    held.pop()
    return out


def check_metric_names(path, text, lines, scoped):
    """metric-name: Registry names must be sdw_<module>_<name>."""
    p = rel(path)
    if scoped and not p.startswith("src/"):
        return []
    out = []
    hits = [(m, "metric") for m in METRIC_CALL_RE.finditer(text)]
    hits += [(m, "cache prefix") for m in CACHE_METRICS_CALL_RE.finditer(text)]
    for m, kind in hits:
        name = m.group(1)
        lineno = text.count("\n", 0, m.start(1)) + 1
        if METRIC_NAME_RE.match(name):
            continue
        if line_allows(lines, lineno, "metric-name"):
            continue
        out.append(
            Violation(
                p, lineno, "metric-name",
                f"{kind} '{name}' does not match sdw_<module>_<name> "
                "(lower_snake, >= 2 segments after sdw_)",
            )
        )
    return out


def check_s3_writes(path, lines, scoped):
    """s3-writes: only backup/ and durability/ may mutate S3 objects."""
    p = rel(path)
    if scoped and (
        not p.startswith("src/")
        or any(p.startswith(pre) for pre in S3_WRITE_OWNER_PREFIXES)
    ):
        return []
    out = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        m = S3_WRITE_RE.search(code)
        if m and not line_allows(lines, i, "s3-writes"):
            out.append(
                Violation(
                    p, i, "s3-writes",
                    "direct S3 object write outside src/backup/ and "
                    "src/durability/ — route mutations through "
                    "BackupManager or CommitLog so the recovery chain "
                    "and log truncation stay coherent",
                )
            )
    return out


def check_system_table_doc(path, lines, scoped):
    """system-table-doc: stl_/stv_ tables served by system_tables.cc
    must be named in DESIGN.md (the documented system-table catalog)."""
    p = rel(path)
    if scoped and p != SYSTEM_TABLE_FILE:
        return []
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    out = []
    seen = set()
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        for m in SYSTEM_TABLE_NAME_RE.finditer(code):
            name = m.group(1)
            if name in seen:
                continue
            seen.add(name)
            if name in design:
                continue
            if line_allows(lines, i, "system-table-doc"):
                continue
            out.append(
                Violation(
                    p, i, "system-table-doc",
                    f"system table '{name}' is not documented in "
                    "DESIGN.md — add it to the system-table catalog "
                    "before shipping it",
                )
            )
    return out


def check_bare_no_tsa(path, lines, scoped):
    """bare-no-thread-safety-analysis: the escape hatch needs a
    why-comment on the preceding lines (DESIGN.md 4f's last-resort
    rule — common/thread_annotations.h promises this is enforced)."""
    p = rel(path)
    if scoped and (not p.startswith("src/") or p == NO_TSA_DEFINITION_FILE):
        return []
    out = []
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if not NO_TSA_RE.search(code):
            continue
        if "#define" in code:  # the macro's definition, not a use
            continue
        if line_allows(lines, i, "bare-no-thread-safety-analysis"):
            continue
        lo = max(0, i - 1 - NO_TSA_COMMENT_WINDOW)
        window = lines[lo : i - 1]
        if any(w.lstrip().startswith("//") for w in window):
            continue
        out.append(
            Violation(
                p, i, "bare-no-thread-safety-analysis",
                "SDW_NO_THREAD_SAFETY_ANALYSIS without a why-comment "
                "above it — say which invariant the analysis cannot "
                "see, or annotate properly instead",
            )
        )
    return out


def check_lock_rank_doc(path, lines, scoped):
    """lock-rank-doc: every LockRank enumerator must appear in
    DESIGN.md's rank table, the same contract system-table-doc
    enforces for stl_/stv_ names."""
    p = rel(path)
    if scoped and p != LOCK_RANK_FILE:
        return []
    if not any(LOCK_RANK_ENUM_RE.search(line) for line in lines):
        return []
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    out = []
    in_enum = False
    for i, line in enumerate(lines, 1):
        code = strip_comment(line)
        if LOCK_RANK_ENUM_RE.search(code):
            in_enum = True
            continue
        if in_enum and "}" in code:
            in_enum = False
            continue
        if not in_enum:
            continue
        m = LOCK_RANK_ENUMERATOR_RE.match(code)
        if not m:
            continue
        name = m.group(1)
        if name in design:
            continue
        if line_allows(lines, i, "lock-rank-doc"):
            continue
        out.append(
            Violation(
                p, i, "lock-rank-doc",
                f"lock rank '{name}' is not documented in DESIGN.md — "
                "add it to the section-4f rank table (rank, module, "
                "acquired-before edges) before wiring it into a mutex",
            )
        )
    return out


def check_file(path, scoped=True):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    violations = []
    violations += check_wall_clock(path, lines, scoped)
    violations += check_naked_thread(path, lines, scoped)
    violations += check_log_under_lock(path, lines, scoped)
    violations += check_metric_names(path, text, lines, scoped)
    violations += check_s3_writes(path, lines, scoped)
    violations += check_system_table_doc(path, lines, scoped)
    violations += check_bare_no_tsa(path, lines, scoped)
    violations += check_lock_rank_doc(path, lines, scoped)
    return violations


def iter_sources(root):
    for p in sorted(root.rglob("*")):
        if p.suffix in SOURCE_SUFFIXES and p.is_file():
            yield p


def run_repo_lint():
    violations = []
    for p in iter_sources(REPO_ROOT / "src"):
        violations += check_file(p, scoped=True)
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


def run_fixture_check():
    fixture_dir = REPO_ROOT / "tests" / "lint_fixtures"
    failures = []
    checked = 0
    for p in iter_sources(fixture_dir):
        checked += 1
        text = p.read_text(encoding="utf-8")
        lines = text.splitlines()
        expected = {}  # (lineno, rule)
        for i, line in enumerate(lines, 1):
            for m in EXPECT_RE.finditer(line):
                expected[(i, m.group(1))] = False
        got = {(v.line, v.rule) for v in check_file(p, scoped=False)}
        for key in expected:
            if key in got:
                expected[key] = True
            else:
                failures.append(
                    f"{rel(p)}:{key[0]}: expected [{key[1]}] did not fire"
                )
        for key in got:
            if key not in expected:
                failures.append(
                    f"{rel(p)}:{key[0]}: unexpected [{key[1]}] violation"
                )
    if checked == 0:
        failures.append(f"no fixtures found under {rel(fixture_dir)}")
    for f in failures:
        print(f)
    if failures:
        print(f"lint fixtures: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint fixtures: {checked} file(s) behave as expected")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check-fixtures",
        action="store_true",
        help="verify tests/lint_fixtures/ trip the rules they claim to",
    )
    args = parser.parse_args()
    if args.check_fixtures:
        return run_fixture_check()
    return run_repo_lint()


if __name__ == "__main__":
    sys.exit(main())
