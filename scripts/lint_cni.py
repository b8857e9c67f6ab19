#!/usr/bin/env python3
"""CNI-specific lint: machine-enforces invariants the codebase keeps by design.

Off-the-shelf tools cannot know this project's contracts, so this linter
checks the three that matter most (see DESIGN.md section 9):

  determinism     The simulator must be bit-reproducible. All randomness
                  flows through the seeded streams in src/util/rng.hpp;
                  wall-clock and libc RNG calls are banned everywhere else
                  in src/.
  hot-path-alloc  src/sim, src/core, src/atm, src/nic, src/dsm and src/obs
                  are the per-event hot paths. Node containers
                  (std::unordered_map/set) are banned there; use
                  util::U64FlatMap (DESIGN.md §8). The std::function and
                  raw-new halves of this rule moved to the AST-grounded
                  scripts/analyze_cni.py (same rule name, so allow()
                  comments carry over), which flags the actual allocating
                  expressions instead of the tokens.
  payload-copy    Frame/diff payloads live in pooled util::Buf storage and
                  travel by refcount (DESIGN.md §10). Declaring a
                  std::vector<std::byte> in a data-path directory almost
                  always reintroduces a per-hop copy; hold a util::Buf or a
                  std::span view instead.
  bare-assert     assert() vanishes under NDEBUG, silently downgrading an
                  invariant to undefined behaviour in release sweeps. Use
                  CNI_CHECK (always on) or CNI_DCHECK (debug-only).
  functionref-param
                  A `const std::function<...>&` parameter forces every call
                  site to materialize a heap-backed owning callable even
                  when the callee only invokes it and never stores it.
                  Non-owning callable parameters take util::FunctionRef
                  (two words, no allocation — DESIGN.md §8); keep
                  std::function for callables that are *stored*.

Plus an include-hygiene pass (skipped by --fast): every header under src/
must compile on its own, verified by generating a one-line TU per header
and running the compiler in syntax-only mode, under the include/define/std
flags of the real build read from compile_commands.json (fallback: -I src).

Suppression: a finding is silenced by an annotation on the same line or in
the contiguous comment block immediately above it, with a reason:

    // cni-lint: allow(hot-path-alloc): cold path, runs once per setup

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Self-test: `lint_cni.py --self-test` runs the linter against the fixture
tree in tests/lint_fixtures (files annotated with `// lint-expect: <rule>`)
and verifies every expected finding fires and nothing else does. Wired into
ctest so the linter itself is tier-1 tested.
"""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

# determinism: wall-clock / libc RNG / unseeded std RNG. src/util/rng.hpp is
# the one sanctioned home for raw generator code.
DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "libc rand()/srand()"),
    (re.compile(r"(?<![\w.:])[lmd]rand48\s*\("), "libc *rand48()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937 (use util::SplitMix64)"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"std::\s*time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|&)"), "libc time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono wall clocks"),
]

# Token-level hot-path bans only. The std::function and raw-new rules moved
# to scripts/analyze_cni.py, which checks the actual AST expressions
# (constructions and new-expressions, seeing through aliases and macros)
# under the same rule name "hot-path-alloc" — existing cni-lint allow()
# comments keep working there unchanged.
HOT_PATH_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\b"),
     "std::unordered_map/set (use util::U64FlatMap)"),
]

PAYLOAD_COPY_PATTERN = re.compile(r"\bstd\s*::\s*vector\s*<\s*std\s*::\s*byte\s*>")

# A const-ref std::function parameter: greedy `<.*>` spans nested template
# arguments on the line; the trailing `&` is what distinguishes a borrowed
# parameter (should be util::FunctionRef) from a stored member or alias.
FUNCTIONREF_PARAM_PATTERN = re.compile(
    r"\bconst\s+std\s*::\s*function\s*<.*>\s*&")

BARE_ASSERT_PATTERN = re.compile(r"(?<![\w.:])assert\s*\(")

# Paths (relative, forward slashes) where determinism primitives may live.
DETERMINISM_EXEMPT = {"src/util/rng.hpp"}
HOT_PATH_DIRS = ("src/sim/", "src/core/", "src/atm/", "src/nic/", "src/dsm/",
                 "src/obs/")

ALLOW_RE = re.compile(r"cni-lint:\s*allow\(([a-z-]+)\)\s*:?\s*(.*)")
EXPECT_RE = re.compile(r"lint-expect:\s*([a-z-]+)")

SOURCE_EXTS = {".hpp", ".cpp", ".h", ".cc"}


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line structure
    so findings keep their true line numbers. Comment *text* is preserved
    separately by the caller for allow/expect annotations."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    state = "raw"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append(" " * (m.end()))
                    i += m.end()
                    continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            elif c == "\n":  # unterminated; recover
                state = "code"
                out.append("\n")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def collect_allows(lines):
    """Maps line number (1-based) -> set of allowed rules. An allow annotation
    covers its own line and, when it sits in a comment block, the first code
    line after that block."""
    allowed = {}
    pending = set()
    for idx, line in enumerate(lines, start=1):
        stripped = line.strip()
        is_comment = stripped.startswith("//") or stripped.startswith("*") or \
            stripped.startswith("/*")
        for m in ALLOW_RE.finditer(line):
            rule, reason = m.group(1), m.group(2).strip()
            if not reason:
                # A reasonless allow is itself a finding; record under a
                # reserved key checked later.
                allowed.setdefault(idx, set()).add("__missing_reason__" + rule)
                continue
            if is_comment:
                pending.add(rule)
            allowed.setdefault(idx, set()).add(rule)
        if not is_comment and stripped:
            if pending:
                allowed.setdefault(idx, set()).update(pending)
                pending = set()
    return allowed


def lint_file(root, rel, findings):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        findings.append(Finding(rel, 0, "io", str(e)))
        return
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    allows = collect_allows(raw_lines)

    for lineno, allowset in allows.items():
        for entry in allowset:
            if entry.startswith("__missing_reason__"):
                findings.append(Finding(
                    rel, lineno, "lint-usage",
                    "cni-lint allow() without a reason — justify the suppression"))

    def check(lineno, rule, detail):
        if rule in allows.get(lineno, set()):
            return
        findings.append(Finding(rel, lineno, rule, detail))

    rel_fs = rel.replace(os.sep, "/")
    in_hot_path = rel_fs.startswith(HOT_PATH_DIRS)
    determinism_exempt = rel_fs in DETERMINISM_EXEMPT

    for lineno, line in enumerate(code_lines, start=1):
        if "#include" in line:
            continue
        if not determinism_exempt:
            for pat, what in DETERMINISM_PATTERNS:
                if pat.search(line):
                    check(lineno, "determinism",
                          f"{what} — all randomness/time must come from "
                          "util/rng.hpp seeded streams or sim::SimTime")
        if in_hot_path:
            for pat, what in HOT_PATH_PATTERNS:
                if pat.search(line):
                    check(lineno, "hot-path-alloc", what)
            if PAYLOAD_COPY_PATTERN.search(line):
                check(lineno, "payload-copy",
                      "std::vector<std::byte> payload copy — hold a "
                      "util::Buf (pooled, refcounted) or a std::span view")
        if FUNCTIONREF_PARAM_PATTERN.search(line):
            check(lineno, "functionref-param",
                  "const std::function<...>& parameter — take "
                  "util::FunctionRef (non-owning, no allocation) for "
                  "call-and-forget callables; std::function is for storage")
        if BARE_ASSERT_PATTERN.search(line):
            check(lineno, "bare-assert",
                  "bare assert() compiles out under NDEBUG — use CNI_CHECK "
                  "or CNI_DCHECK (util/check.hpp)")


def iter_source_files(root, subdir="src"):
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if os.path.splitext(name)[1] in SOURCE_EXTS:
                yield os.path.relpath(os.path.join(dirpath, name), root)


def find_compiler():
    cxx = os.environ.get("CXX")
    if cxx and shutil.which(cxx):
        return cxx
    for cand in ("c++", "g++", "clang++"):
        if shutil.which(cand):
            return cand
    return None


def compile_db_flags(root, build_dir=None):
    """Include/define/standard flags for the hygiene TUs, read from the
    build's compile_commands.json so the pass checks headers under the same
    -I/-isystem/-D/-std the real build uses. Falls back to the historical
    `-std=c++20 -I <root>/src` when no database exists (fresh checkout,
    fixture trees)."""
    candidates = []
    if build_dir:
        candidates.append(os.path.join(build_dir, "compile_commands.json"))
    elif os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            candidates.append(os.path.join(root, name, "compile_commands.json"))
    for db_path in candidates:
        if not os.path.isfile(db_path):
            continue
        try:
            with open(db_path, encoding="utf-8") as f:
                db = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        for entry in db:
            path = os.path.normpath(os.path.join(entry.get("directory", "."),
                                                 entry.get("file", "")))
            if os.sep + "src" + os.sep not in path:
                continue
            argv = entry.get("arguments") or shlex.split(entry.get("command", ""))
            cwd = entry.get("directory", ".")
            flags = []
            i = 1
            while i < len(argv):
                a = argv[i]
                if a in ("-I", "-isystem", "-iquote"):
                    if i + 1 < len(argv):
                        flags += [a, os.path.normpath(
                            os.path.join(cwd, argv[i + 1]))]
                    i += 2
                elif a.startswith("-I") and len(a) > 2:
                    flags.append("-I" + os.path.normpath(
                        os.path.join(cwd, a[2:])))
                    i += 1
                elif a.startswith(("-D", "-U", "-std=")):
                    flags.append(a)
                    i += 1
                else:
                    i += 1
            if flags:
                return flags
    return ["-std=c++20", "-I", os.path.join(root, "src")]


def check_include_hygiene(root, findings, headers=None, build_dir=None):
    """Every header must be self-sufficient: a TU containing only that
    #include must compile. Catches headers leaning on transitive includes."""
    cxx = find_compiler()
    if cxx is None:
        print("lint_cni: no C++ compiler found; skipping include-hygiene",
              file=sys.stderr)
        return
    if headers is None:
        headers = [f for f in iter_source_files(root)
                   if f.endswith((".hpp", ".h"))]
    flags = compile_db_flags(root, build_dir)
    with tempfile.TemporaryDirectory() as tmp:
        for rel in headers:
            rel_fs = rel.replace(os.sep, "/")
            include_name = rel_fs[len("src/"):] if rel_fs.startswith("src/") else rel_fs
            tu = os.path.join(tmp, "tu.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{include_name}"\n')
            proc = subprocess.run(
                [cxx, *flags, "-fsyntax-only", tu],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                first_err = next(
                    (l for l in proc.stderr.splitlines() if "error" in l), "")
                findings.append(Finding(
                    rel, 1, "include-hygiene",
                    "header does not compile standalone: " + first_err.strip()))


# ---------------------------------------------------------------------------
# Self-test against the fixture tree
# ---------------------------------------------------------------------------

def collect_expectations(root):
    expected = set()
    for rel in iter_source_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for m in EXPECT_RE.finditer(f.read()):
                expected.add((rel.replace(os.sep, "/"), m.group(1)))
    return expected


def run_self_test(fixture_root):
    if not os.path.isdir(os.path.join(fixture_root, "src")):
        print(f"lint_cni: fixture tree not found at {fixture_root}",
              file=sys.stderr)
        return 2
    findings = []
    for rel in iter_source_files(fixture_root):
        lint_file(fixture_root, rel, findings)
    check_include_hygiene(fixture_root, findings)

    expected = collect_expectations(fixture_root)
    got = {(f.path.replace(os.sep, "/"), f.rule) for f in findings}

    ok = True
    for miss in sorted(expected - got):
        print(f"self-test FAIL: expected finding did not fire: {miss}")
        ok = False
    for extra in sorted(got - expected):
        print(f"self-test FAIL: unexpected finding: {extra}")
        for f in findings:
            if (f.path.replace(os.sep, "/"), f.rule) == extra:
                print(f"    {f}")
        ok = False
    if ok:
        print(f"lint_cni self-test: OK ({len(expected)} expected findings, "
              f"{len(findings)} fired)")
        return 0
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--fast", action="store_true",
                    help="skip the include-hygiene compile pass")
    ap.add_argument("--build-dir", default=None,
                    help="build dir whose compile_commands.json supplies the "
                         "include-hygiene flags (default: any "
                         "<root>/*/compile_commands.json; fallback -I src)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the fixture tree and check expected findings")
    args = ap.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(script_dir)

    if args.self_test:
        sys.exit(run_self_test(os.path.join(root, "tests", "lint_fixtures")))

    findings = []
    for rel in iter_source_files(root):
        lint_file(root, rel, findings)
    if not args.fast:
        check_include_hygiene(root, findings, build_dir=args.build_dir)

    for f in findings:
        print(f)
    if findings:
        print(f"lint_cni: {len(findings)} finding(s)")
        sys.exit(1)
    print("lint_cni: OK")
    sys.exit(0)


if __name__ == "__main__":
    main()
