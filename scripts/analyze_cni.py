#!/usr/bin/env python3
"""AST-grounded CNI analyzer: checks the regex linter cannot do.

lint_cni.py matches tokens; this analyzer reads the program. It drives
`clang -Xclang -ast-dump=json -fsyntax-only` over the compilation database
(compile_commands.json) and walks the real AST, so it sees through macros,
type aliases and formatting — a `DeliveryHook` IS a std::function here, a
defaulted memory_order argument IS seq_cst, regardless of how the line is
wrapped.

Checks (rule names are the suppression keys):

  hot-path-alloc        Actual allocation expressions in the per-event hot
                        directories (src/sim|core|atm|nic|dsm|obs): non-
                        placement new-expressions, std::function
                        constructions that can allocate (from a callable, or
                        a copy — default/move construction is free and not
                        flagged), and std::make_unique/make_shared calls.
                        Same rule name as the old regex rule, so existing
                        cni-lint allow() comments keep working.
  hot-path-growth       push_back/emplace_back on a local std::vector inside
                        a loop, in a hot directory, in a function that never
                        calls reserve(): unreserved growth reallocates —
                        reserve first, or justify with an allow.
  atomic-implicit-order A std::atomic operation relying on the defaulted
                        memory_order (silent seq_cst), or an operator-form
                        access (=, ++, implicit load) which is always
                        seq_cst. Audited in src/sim, src/atm, src/util.
                        Every ordering must be a choice, not a default.
  atomic-rationale      An explicit atomic operation with no adjacent
                        comment (same line or the four lines above): the
                        chosen memory_order must carry its pairing rationale
                        next to the code. Audited in src/sim|atm|util.
  functionref-escape    A class/struct field of util::FunctionRef type:
                        FunctionRef is a borrowed view; storing one beyond
                        the borrow is a use-after-free factory. Fields need
                        an allow() stating the lifetime argument.
  virtual-hot           A virtual member function declared in the event-
                        dispatch core (src/sim, src/core): per-event virtual
                        dispatch defeats inlining on the hottest paths; use
                        InlineFn/FunctionRef or CRTP instead.

Suppression syntax is shared with lint_cni.py: an annotation on the same
line or in the comment block immediately above, with a reason:

    // cni-lint: allow(hot-path-alloc): installed once at setup

Requirements and graceful degradation: the tree scan needs clang and a
compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS is on). When either is
missing the scan prints a SKIP notice and exits 0 — the `analyze` CI job is
where enforcement happens. `--self-test` always runs its clang-free
synthetic-AST unit tests, and additionally analyzes the fixture tree in
tests/analyze_fixtures (files annotated `// analyze-expect: <rule>`) when
clang is available.

Exit status: 0 clean/skipped, 1 findings or self-test failure, 2 usage.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from lint_cni import collect_allows  # noqa: E402  (shared suppression rules)

HOT_PATH_DIRS = ("src/sim/", "src/core/", "src/atm/", "src/nic/", "src/dsm/",
                 "src/obs/")
ATOMIC_AUDIT_DIRS = ("src/sim/", "src/atm/", "src/util/")
VIRTUAL_HOT_DIRS = ("src/sim/", "src/core/")

EXPECT_RE = re.compile(r"analyze-expect:\s*([a-z-]+)")

FUNC_KINDS = {"FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
              "CXXDestructorDecl", "CXXConversionDecl"}
LOOP_KINDS = {"ForStmt", "WhileStmt", "DoStmt", "CXXForRangeStmt"}
WRAPPER_KINDS = {"ImplicitCastExpr", "ParenExpr", "ExprWithCleanups",
                 "MaterializeTemporaryExpr", "CXXBindTemporaryExpr",
                 "ConstantExpr", "FullExpr", "CXXFunctionalCastExpr",
                 "CXXStaticCastExpr"}

# Atomic member operations that take a memory_order parameter.
ATOMIC_ORDERED_OPS = {"load", "store", "exchange", "compare_exchange_weak",
                      "compare_exchange_strong", "fetch_add", "fetch_sub",
                      "fetch_and", "fetch_or", "fetch_xor", "wait",
                      "test_and_set", "clear", "test"}


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


# ---------------------------------------------------------------------------
# Location resolution
#
# clang's JSON dump encodes locations differentially: "file" and "line" are
# omitted whenever they equal the previously *printed* location. Decoding
# therefore requires one pass over the document in print order, threading
# the last-seen file/line through every loc object (including the nested
# spellingLoc/expansionLoc pairs of macro expansions).
# ---------------------------------------------------------------------------

LOC_KEYS = {"loc", "begin", "end", "spellingLoc", "expansionLoc"}


def resolve_locations(root):
    state = {"file": None, "line": None}

    def fill(loc):
        if "spellingLoc" in loc or "expansionLoc" in loc:
            # Printed spelling-first; decode in the same order.
            if "spellingLoc" in loc:
                fill(loc["spellingLoc"])
            if "expansionLoc" in loc:
                fill(loc["expansionLoc"])
            return
        if not loc:
            return  # invalid/compiler-generated: no update, no inheritance
        if "file" in loc:
            state["file"] = loc["file"]
        else:
            loc["file"] = state["file"]
        if "line" in loc:
            state["line"] = loc["line"]
        else:
            loc["line"] = state["line"]

    def visit(obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                if key in LOC_KEYS and isinstance(val, dict):
                    fill(val)
                    # expansionLocs can themselves carry range-like nesting;
                    # plain recursion below would double-count, so stop here.
                elif key == "range" and isinstance(val, dict):
                    for sub in ("begin", "end"):
                        if isinstance(val.get(sub), dict):
                            fill(val[sub])
                else:
                    visit(val)
        elif isinstance(obj, list):
            for item in obj:
                visit(item)

    visit(root)


def effective_loc(loc):
    """(file, line) of a resolved loc, preferring the macro expansion site."""
    if loc is None:
        return (None, None)
    if "expansionLoc" in loc:
        return effective_loc(loc["expansionLoc"])
    return (loc.get("file"), loc.get("line"))


def node_loc(node):
    file, line = effective_loc(node.get("loc"))
    if file is None or line is None:
        rng = node.get("range") or {}
        file, line = effective_loc(rng.get("begin"))
    return (file, line)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def inner(node):
    return node.get("inner") or []


def unwrap(expr):
    while isinstance(expr, dict) and expr.get("kind") in WRAPPER_KINDS:
        kids = inner(expr)
        if not kids:
            return expr
        expr = kids[0]
    return expr


def type_strings(node):
    t = node.get("type") or {}
    return (t.get("qualType") or "", t.get("desugaredQualType") or "")


def squash(s):
    return re.sub(r"\s+", "", s)


def is_std_function_type(node):
    for t in type_strings(node):
        s = squash(t).removeprefix("const")
        if s.startswith("std::function<"):
            return True
    return False


def mentions(node, needle):
    return any(needle in t for t in type_strings(node))


def member_callee(call):
    kids = inner(call)
    if kids and kids[0].get("kind") == "MemberExpr":
        return kids[0]
    return None


def member_base(member_expr):
    kids = inner(member_expr)
    return unwrap(kids[0]) if kids else None


def callee_name(call):
    """Name of a CallExpr's callee through DeclRefExpr, or None."""
    kids = inner(call)
    if not kids:
        return None
    cal = unwrap(kids[0])
    if cal.get("kind") == "DeclRefExpr":
        ref = cal.get("referencedDecl") or {}
        return ref.get("name")
    return None


def subtree_any(node, pred):
    if pred(node):
        return True
    return any(isinstance(k, dict) and subtree_any(k, pred) for k in inner(node))


def calls_member_named(node, names):
    def pred(n):
        if n.get("kind") not in ("CXXMemberCallExpr",):
            return False
        cal = member_callee(n)
        return cal is not None and cal.get("name") in names
    return subtree_any(node, pred)


# ---------------------------------------------------------------------------
# Rules engine (pure: AST in, findings out — unit-testable without clang)
# ---------------------------------------------------------------------------

class Analyzer:
    """Analyzes one resolved AST. `to_rel` maps a loc file string to a
    repo-relative forward-slash path (or None to ignore the location);
    `get_source` maps such a rel path to its source text lines."""

    def __init__(self, to_rel, get_source):
        self.to_rel = to_rel
        self.get_source = get_source
        self.findings = []
        self._allows = {}
        self._sources = {}

    # -- infrastructure ----------------------------------------------------

    def _lines(self, rel):
        if rel not in self._sources:
            self._sources[rel] = self.get_source(rel) or []
        return self._sources[rel]

    def _allowed(self, rel, line, rule):
        if rel not in self._allows:
            self._allows[rel] = collect_allows(self._lines(rel))
        return rule in self._allows[rel].get(line, set())

    def report(self, node, rule, detail, dirs=None):
        file, line = node_loc(node)
        rel = self.to_rel(file) if file else None
        if rel is None or line is None:
            return
        if dirs is not None and not rel.startswith(dirs):
            return
        if self._allowed(rel, line, rule):
            return
        self.findings.append(Finding(rel, line, rule, detail))

    def _has_adjacent_comment(self, rel, line):
        lines = self._lines(rel)
        lo = max(0, line - 5)  # same line plus up to four lines above
        for text in lines[lo:line]:
            if "//" in text or "/*" in text or text.lstrip().startswith("*"):
                return True
        return False

    # -- entry point -------------------------------------------------------

    def run(self, tu_node):
        self._walk(tu_node, None, 0)
        return self.findings

    # -- walk --------------------------------------------------------------

    def _walk(self, node, fn, loop_depth):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")

        if kind in FUNC_KINDS:
            new_fn = {
                "has_reserve": calls_member_named(node, {"reserve"}),
                "name": node.get("name", "?"),
            }
            self._check_virtual(node)
            for kid in inner(node):
                self._walk(kid, new_fn, 0)
            return

        if kind == "FieldDecl":
            self._check_field(node)
        elif kind == "CXXNewExpr":
            self._check_new(node)
        elif kind in ("CXXConstructExpr", "CXXTemporaryObjectExpr"):
            self._check_construct(node)
        elif kind == "CallExpr":
            self._check_call(node)
        elif kind == "CXXMemberCallExpr":
            self._check_member_call(node, fn, loop_depth)
        elif kind == "CXXOperatorCallExpr":
            self._check_operator_call(node)

        if kind in LOOP_KINDS:
            loop_depth += 1
        for kid in inner(node):
            self._walk(kid, fn, loop_depth)

    # -- individual rules --------------------------------------------------

    def _check_field(self, node):
        if mentions(node, "FunctionRef"):
            self.report(node, "functionref-escape",
                        f"field '{node.get('name', '?')}' stores a borrowed "
                        "util::FunctionRef — document the lifetime contract "
                        "with an allow(), or own the callable")

    def _check_virtual(self, node):
        if node.get("kind") == "CXXMethodDecl" and node.get("virtual"):
            self.report(node, "virtual-hot",
                        f"virtual method '{node.get('name', '?')}' on an "
                        "event-dispatch path — per-event virtual dispatch "
                        "defeats inlining; use InlineFn/FunctionRef or CRTP",
                        dirs=VIRTUAL_HOT_DIRS)

    def _check_new(self, node):
        # Non-allocating placement new (operator new(size_t, void*)) is the
        # InlineFn small-buffer mechanism, not an allocation: skip it.
        op = node.get("operatorNewDecl") or {}
        sig = squash((op.get("type") or {}).get("qualType") or "")
        if ",void*" in sig:
            return
        self.report(node, "hot-path-alloc",
                    "new-expression on the per-event path (pool or InlineFn "
                    "instead)", dirs=HOT_PATH_DIRS)

    def _check_construct(self, node):
        if not is_std_function_type(node):
            return
        args = inner(node)
        if not args:
            return  # default construction: empty target, no allocation
        if len(args) == 1:
            arg = args[0]
            if arg.get("valueCategory") == "xvalue" and \
                    is_std_function_type(unwrap(arg)):
                return  # move construction: steals, never allocates
        self.report(node, "hot-path-alloc",
                    "std::function construction can heap-allocate the "
                    "target (use sim::InlineFn / util::FunctionRef)",
                    dirs=HOT_PATH_DIRS)

    def _check_call(self, node):
        name = callee_name(node)
        if name in ("make_unique", "make_shared"):
            self.report(node, "hot-path-alloc",
                        f"std::{name} on the per-event path",
                        dirs=HOT_PATH_DIRS)

    def _check_member_call(self, node, fn, loop_depth):
        cal = member_callee(node)
        if cal is None:
            return
        name = cal.get("name")
        base = member_base(cal)
        if base is None:
            return

        if mentions(base, "atomic"):
            if name in ATOMIC_ORDERED_OPS:
                if any(k.get("kind") == "CXXDefaultArgExpr"
                       for k in inner(node)[1:]):
                    self.report(cal, "atomic-implicit-order",
                                f"atomic {name}() relies on the defaulted "
                                "memory_order (silent seq_cst) — name the "
                                "ordering explicitly",
                                dirs=ATOMIC_AUDIT_DIRS)
                else:
                    self._check_rationale(cal, name)
            elif name and name.startswith("operator"):
                self.report(cal, "atomic-implicit-order",
                            f"atomic {name} is seq_cst by definition — use "
                            "load()/store() with an explicit memory_order",
                            dirs=ATOMIC_AUDIT_DIRS)
            return

        if name in ("push_back", "emplace_back") and loop_depth > 0 \
                and fn is not None and not fn["has_reserve"] \
                and base.get("kind") == "DeclRefExpr" \
                and mentions(base, "vector"):
            self.report(cal, "hot-path-growth",
                        f"{name} on a local vector inside a loop with no "
                        "reserve() in the function — unreserved growth "
                        "reallocates on the hot path",
                        dirs=HOT_PATH_DIRS)

    def _check_rationale(self, cal, name):
        file, line = node_loc(cal)
        rel = self.to_rel(file) if file else None
        if rel is None or line is None or not rel.startswith(ATOMIC_AUDIT_DIRS):
            return
        if self._has_adjacent_comment(rel, line):
            return
        if self._allowed(rel, line, "atomic-rationale"):
            return
        self.findings.append(Finding(
            rel, line, "atomic-rationale",
            f"atomic {name}() without an adjacent rationale comment — state "
            "which release/acquire (or why relaxed is enough) next to the op"))

    def _check_operator_call(self, node):
        kids = inner(node)
        if len(kids) < 2:
            return
        obj = unwrap(kids[1])
        if mentions(obj, "atomic"):
            self.report(node, "atomic-implicit-order",
                        "operator-form atomic access is seq_cst by "
                        "definition — use load()/store()/fetch_*() with an "
                        "explicit memory_order", dirs=ATOMIC_AUDIT_DIRS)

# ---------------------------------------------------------------------------
# Driving clang
# ---------------------------------------------------------------------------

def find_clang():
    env = os.environ.get("CNI_CLANG")
    if env and shutil.which(env):
        return env
    for ver in range(21, 13, -1):
        cand = f"clang++-{ver}"
        if shutil.which(cand):
            return cand
    for cand in ("clang++", "clang"):
        if shutil.which(cand):
            return cand
    return None


def find_compile_db(root, build_dir):
    candidates = []
    if build_dir:
        candidates.append(os.path.join(build_dir, "compile_commands.json"))
    else:
        for name in sorted(os.listdir(root)):
            p = os.path.join(root, name, "compile_commands.json")
            if os.path.isfile(p):
                candidates.append(p)
    for p in candidates:
        if os.path.isfile(p):
            return p
    return None


def ast_command(clang, entry):
    if "arguments" in entry:
        args = list(entry["arguments"])
    else:
        args = shlex.split(entry["command"])
    out = [clang]
    i = 1
    while i < len(args):
        a = args[i]
        if a in ("-o", "-MF", "-MT", "-MQ"):
            i += 2
            continue
        if a in ("-c", "-MD", "-MMD") or a.startswith("-o"):
            i += 1
            continue
        out.append(a)
        i += 1
    out += ["-fsyntax-only", "-Wno-everything", "-Xclang", "-ast-dump=json"]
    return out


def dump_ast(clang, entry):
    cmd = ast_command(clang, entry)
    proc = subprocess.run(cmd, cwd=entry.get("directory", "."),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"clang failed on {entry['file']}: "
            f"{proc.stderr.strip().splitlines()[:3]}")
    return json.loads(proc.stdout)


def make_to_rel(root):
    root = os.path.abspath(root)

    def to_rel(file):
        if not file:
            return None
        path = file if os.path.isabs(file) else os.path.join(root, file)
        path = os.path.normpath(path)
        if not path.startswith(root + os.sep):
            return None
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        return rel if rel.startswith("src/") else None
    return to_rel


def make_get_source(root):
    def get_source(rel):
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as f:
                return f.read().splitlines()
        except OSError:
            return []
    return get_source


def analyze_tu(clang, entry, root):
    ast = dump_ast(clang, entry)
    resolve_locations(ast)
    analyzer = Analyzer(make_to_rel(root), make_get_source(root))
    return analyzer.run(ast)


def scan_tree(root, build_dir, jobs):
    clang = find_clang()
    if clang is None:
        print("analyze_cni: SKIP — no clang available (the analyzer needs "
              "clang's JSON AST dump; the CI analyze job enforces this gate)")
        return 0
    db_path = find_compile_db(root, build_dir)
    if db_path is None:
        print("analyze_cni: SKIP — no compile_commands.json found (configure "
              "with CMake first, or pass --build-dir)")
        return 0
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)

    src_root = os.path.join(os.path.abspath(root), "src") + os.sep
    entries, seen = [], set()
    for entry in db:
        path = os.path.normpath(os.path.join(entry.get("directory", "."),
                                             entry["file"]))
        if path.startswith(src_root) and path not in seen:
            seen.add(path)
            entries.append(entry)
    if not entries:
        print("analyze_cni: SKIP — compile database has no src/ entries")
        return 0

    findings, errors = {}, []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(analyze_tu, clang, e, root): e for e in entries}
        for fut in concurrent.futures.as_completed(futures):
            try:
                for f in fut.result():
                    findings[f.key()] = f
            except (RuntimeError, json.JSONDecodeError) as e:
                errors.append(str(e))

    for err in errors:
        print(f"analyze_cni: ERROR {err}", file=sys.stderr)
    for f in sorted(findings.values(), key=Finding.key):
        print(f)
    if findings or errors:
        print(f"analyze_cni: {len(findings)} finding(s), {len(errors)} "
              f"error(s) over {len(entries)} TU(s)")
        return 1
    print(f"analyze_cni: OK ({len(entries)} TU(s), {len(db)} db entries)")
    return 0


# ---------------------------------------------------------------------------
# Self-test tier 1: synthetic ASTs (no clang needed)
#
# Each case hand-writes the minimal JSON clang would emit, so the rules
# engine is exercised on every platform — including the differential
# location decoding, which is the subtlest part of the loader.
# ---------------------------------------------------------------------------

def _syn_loc(file=None, line=None):
    loc = {"offset": 0, "col": 1, "tokLen": 1}
    if file is not None:
        loc["file"] = file
    if line is not None:
        loc["line"] = line
    return loc


def _syn_tu(*decls):
    return {"kind": "TranslationUnitDecl", "inner": list(decls)}


def _syn_fn(name, body_stmts, loc=None, kind="FunctionDecl", virtual=False):
    node = {"kind": kind, "name": name, "loc": loc or {},
            "inner": [{"kind": "CompoundStmt", "inner": list(body_stmts)}]}
    if virtual:
        node["virtual"] = True
    return node


def _syn_atomic_call(op, line, explicit=True, file=None):
    args = [] if explicit else [{"kind": "CXXDefaultArgExpr"}]
    return {"kind": "CXXMemberCallExpr", "inner": [
        {"kind": "MemberExpr", "name": op, "loc": _syn_loc(file, line),
         "inner": [{"kind": "DeclRefExpr",
                    "type": {"qualType": "std::atomic<unsigned long>"}}]},
    ] + args}


def run_synthetic_tests():
    failures = []
    src = {}

    def check(name, ast, expect, sources=None):
        analyzer = Analyzer(
            lambda f: f if f and f.startswith("src/") else None,
            lambda rel: (sources or src).get(rel, [""] * 200))
        resolve_locations(ast)
        got = sorted((f.rule, f.path, f.line) for f in analyzer.run(ast))
        want = sorted(expect)
        if got != want:
            failures.append(f"{name}: expected {want}, got {got}")

    # Differential locations: the second node inherits file and line.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXNewExpr", "loc": _syn_loc("src/sim/a.cpp", 10)},
        {"kind": "CXXNewExpr", "loc": _syn_loc()},  # inherits a.cpp:10
    ]))
    check("differential-loc", ast,
          [("hot-path-alloc", "src/sim/a.cpp", 10),
           ("hot-path-alloc", "src/sim/a.cpp", 10)])

    # Placement new (operator new(size_t, void*)) is exempt.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXNewExpr", "loc": _syn_loc("src/sim/a.cpp", 3),
         "operatorNewDecl": {"type": {"qualType": "void *(unsigned long, void *)"}}},
    ]))
    check("placement-new-exempt", ast, [])

    # Hot-dir scoping: new in src/apps is fine.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXNewExpr", "loc": _syn_loc("src/apps/a.cpp", 3)},
    ]))
    check("hot-dir-scope", ast, [])

    # Suppression via cni-lint allow on the same line.
    allowed_src = {"src/sim/a.cpp": [""] * 4 +
                   ["x = new T;  // cni-lint: allow(hot-path-alloc): setup"]}
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXNewExpr", "loc": _syn_loc("src/sim/a.cpp", 5)},
    ]))
    check("allow-suppresses", ast, [], sources=allowed_src)

    # std::function: conversion flagged, move exempt, default exempt.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXConstructExpr", "loc": _syn_loc("src/nic/b.cpp", 7),
         "type": {"qualType": "Handler",
                  "desugaredQualType": "std::function<void (int)>"},
         "inner": [{"kind": "LambdaExpr", "type": {"qualType": "(lambda)"}}]},
        {"kind": "CXXConstructExpr", "loc": _syn_loc("src/nic/b.cpp", 8),
         "type": {"qualType": "std::function<void (int)>"},
         "inner": [{"kind": "DeclRefExpr", "valueCategory": "xvalue",
                    "type": {"qualType": "std::function<void (int)>"}}]},
        {"kind": "CXXConstructExpr", "loc": _syn_loc("src/nic/b.cpp", 9),
         "type": {"qualType": "std::function<void (int)>"}, "inner": []},
    ]))
    check("std-function", ast, [("hot-path-alloc", "src/nic/b.cpp", 7)])

    # make_unique flagged in hot dirs.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CallExpr", "loc": _syn_loc("src/obs/c.cpp", 4), "inner": [
            {"kind": "ImplicitCastExpr", "inner": [
                {"kind": "DeclRefExpr",
                 "referencedDecl": {"name": "make_unique"}}]}]},
    ]))
    check("make-unique", ast, [("hot-path-alloc", "src/obs/c.cpp", 4)])

    # Atomics: defaulted order flagged; explicit order with comment is clean;
    # explicit order without comment needs a rationale.
    commented = {"src/sim/d.cpp":
                 ["" for _ in range(30)]}
    commented["src/sim/d.cpp"][18] = "  // release: pairs with the acquire"
    ast = _syn_tu(_syn_fn("f", [
        _syn_atomic_call("load", 10, explicit=False, file="src/sim/d.cpp"),
        _syn_atomic_call("store", 20, explicit=True),   # comment on line 19
        _syn_atomic_call("fetch_add", 28, explicit=True),  # no comment
    ]))
    check("atomics", ast,
          [("atomic-implicit-order", "src/sim/d.cpp", 10),
           ("atomic-rationale", "src/sim/d.cpp", 28)], sources=commented)

    # Operator-form atomic access.
    ast = _syn_tu(_syn_fn("f", [
        {"kind": "CXXOperatorCallExpr", "loc": _syn_loc("src/atm/e.cpp", 6),
         "inner": [{"kind": "ImplicitCastExpr", "inner": [
                       {"kind": "DeclRefExpr",
                        "referencedDecl": {"name": "operator="}}]},
                   {"kind": "DeclRefExpr",
                    "type": {"qualType": "std::atomic<int>"}}]},
    ]))
    check("atomic-operator", ast,
          [("atomic-implicit-order", "src/atm/e.cpp", 6)])

    # functionref-escape on fields; virtual-hot in src/sim only.
    ast = _syn_tu(
        {"kind": "FieldDecl", "name": "hook",
         "loc": _syn_loc("src/sim/h.cpp", 3),
         "type": {"qualType": "util::FunctionRef<void ()>"}},
        _syn_fn("dispatch", [], loc=_syn_loc("src/sim/h.cpp", 9),
                kind="CXXMethodDecl", virtual=True),
        _syn_fn("fine", [], loc=_syn_loc("src/nic/h.cpp", 9),
                kind="CXXMethodDecl", virtual=True))
    check("escape-and-virtual", ast,
          [("functionref-escape", "src/sim/h.cpp", 3),
           ("virtual-hot", "src/sim/h.cpp", 9)])

    # hot-path-growth: unreserved loop growth on a local vector fires; a
    # reserve() anywhere in the function clears it.
    grow = {"kind": "ForStmt", "inner": [
        {"kind": "CXXMemberCallExpr", "inner": [
            {"kind": "MemberExpr", "name": "push_back",
             "loc": _syn_loc("src/dsm/i.cpp", 22),
             "inner": [{"kind": "DeclRefExpr",
                        "type": {"qualType": "std::vector<int>"}}]}]}]}
    reserve = {"kind": "CXXMemberCallExpr", "inner": [
        {"kind": "MemberExpr", "name": "reserve",
         "inner": [{"kind": "DeclRefExpr",
                    "type": {"qualType": "std::vector<int>"}}]}]}
    check("growth-bad", _syn_tu(_syn_fn("f", [dict(grow)])),
          [("hot-path-growth", "src/dsm/i.cpp", 22)])
    check("growth-reserved", _syn_tu(_syn_fn("f", [reserve, dict(grow)])), [])

    if failures:
        for f in failures:
            print(f"synthetic self-test FAIL: {f}")
        return False
    print("analyze_cni synthetic self-test: OK (14 cases)")
    return True


# ---------------------------------------------------------------------------
# Self-test tier 2: fixture tree under real clang
# ---------------------------------------------------------------------------

def fixture_expectations(fixture_root):
    expected = set()
    for dirpath, _dirs, files in os.walk(os.path.join(fixture_root, "src")):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, fixture_root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for m in EXPECT_RE.finditer(f.read()):
                    expected.add((rel, m.group(1)))
    return expected


def run_fixture_test(repo_root, fixture_root):
    clang = find_clang()
    if clang is None:
        print("analyze_cni fixture self-test: SKIP — clang not available "
              "(synthetic tier already ran; CI runs this tier)")
        return True
    got = set()
    all_findings = []

    files = []
    for dirpath, _dirs, names in os.walk(os.path.join(fixture_root, "src")):
        for name in sorted(names):
            if os.path.splitext(name)[1] in (".hpp", ".cpp", ".h", ".cc"):
                files.append(os.path.join(dirpath, name))
    if not files:
        print(f"analyze_cni: fixture tree not found at {fixture_root}")
        return False

    with tempfile.TemporaryDirectory() as tmp:
        for path in files:
            rel = os.path.relpath(path, fixture_root).replace(os.sep, "/")
            if path.endswith((".hpp", ".h")):
                tu = os.path.join(tmp, "tu.cpp")
                with open(tu, "w", encoding="utf-8") as f:
                    f.write(f'#include "{rel[len("src/"):]}"\n')
            else:
                tu = path
            entry = {"file": tu, "directory": fixture_root,
                     "arguments": [clang, "-std=c++20",
                                   "-I", os.path.join(fixture_root, "src"),
                                   "-I", os.path.join(repo_root, "src"), tu]}
            try:
                ast = dump_ast(clang, entry)
            except RuntimeError as e:
                print(f"fixture self-test FAIL: {e}")
                return False
            resolve_locations(ast)
            analyzer = Analyzer(make_to_rel(fixture_root),
                                make_get_source(fixture_root))
            for f in analyzer.run(ast):
                got.add((f.path, f.rule))
                all_findings.append(f)

    expected = fixture_expectations(fixture_root)
    ok = True
    for miss in sorted(expected - got):
        print(f"fixture self-test FAIL: expected finding did not fire: {miss}")
        ok = False
    for extra in sorted(got - expected):
        print(f"fixture self-test FAIL: unexpected finding: {extra}")
        for f in all_findings:
            if (f.path, f.rule) == extra:
                print(f"    {f}")
        ok = False
    if ok:
        print(f"analyze_cni fixture self-test: OK ({len(expected)} expected "
              f"findings under {os.path.basename(clang)})")
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--build-dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(default: any <root>/*/compile_commands.json)")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1),
                    help="parallel clang invocations (ASTs are large)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the synthetic-AST unit tests, then the fixture "
                         "tree when clang is available")
    args = ap.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root) if args.root else os.path.dirname(script_dir)

    if args.self_test:
        ok = run_synthetic_tests()
        ok = run_fixture_test(
            root, os.path.join(root, "tests", "analyze_fixtures")) and ok
        sys.exit(0 if ok else 1)

    sys.exit(scan_tree(root, args.build_dir, args.jobs))


if __name__ == "__main__":
    main()
