#!/usr/bin/env python3
"""Census of simulator functions that only tests call.

    cmake -B build-census -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-census -j
    cmake -B build-census-pb -S perfbench <same flags> && cmake --build build-census-pb
    python3 scripts/census.py build-census build-census-pb

With every function in its own section and the linker dropping each section
nothing reaches, a binary keeps exactly the functions it can call. The census
lists the `cni::` functions defined under `src/` that some test binary keeps
and no production binary does. Production is every binary under bench/,
examples/ and tools/ of the first build dir, plus perfbench_worker in the
second (built with the same flags). Each binary is read with binutils
`nm -C -l`, so the build needs debug info: the line table says which file
defines a function, and a test's own helpers do not count.

Names are compared with template arguments and parameter lists stripped: a
test's own instantiation of a production template is not test-only code.
A `const` member is a read-only observer of state production code keeps
anyway, so it passes. Every other test-only function must be on KEEP below
with its reason; any that is not makes the script exit 1.
"""
import argparse
import concurrent.futures
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Non-const functions that only tests reach and that stay on purpose.
KEEP = {
    "cni::sim::Engine::run":
        "how tests run a standalone engine: until nothing is pending "
        "(Cluster::run windows through run_before)",
    "cni::sim::InlineFn::heap_ops":
        "InlineFn's fallback for a capture that does not fit inline; every production "
        "capture fits, and the fallback keeps a larger one working",
    "cni::sim::InlineFn::heap_ops::{lambda#1}::_FUN": "part of InlineFn::heap_ops",
    "cni::sim::InlineFn::heap_ops::{lambda#2}::_FUN": "part of InlineFn::heap_ops",
    "cni::util::Logger::set_level":
        "test seam: production reads CNI_LOG_LEVEL once",
    "cni::util::Logger::set_json":
        "test seam: production reads CNI_LOG_JSON once",
    "cni::util::Logger::set_stream":
        "test seam: production logs to stderr; tests capture the lines",
    'cni::util::operator"" _KiB':
        "size literal of the units header, one constexpr line; only tests spell sizes "
        "with it so far",
    'cni::util::operator"" _MiB':
        "size literal of the units header, one constexpr line; only tests spell sizes "
        "with it so far",
    "cni::atm::Frame::blank":
        "test seam: a zero-filled frame for fabric and board tests",
    "cni::atm::Frame::mutable_bytes":
        "test seam: writes a header into a blank frame",
    "cni::cluster::Cluster::obs":
        "test access to the run's per-node trace rings; reports read them "
        "through the snapshot",
    "cni::cluster::Node::cni":
        "typed access to a node's CNI board for board-level tests",
    "cni::cluster::HostCpu::mem_access":
        "one translated load/store; the DSM fast path calls mem_access_phys with "
        "its cached translation, tests drive the cache model through this",
    "cni::core::CniBoard::message_cache":
        "test seam: probes a live board's Message Cache (production reads the "
        "const overload)",
    "cni::dsm::DsmContext::runtime":
        "test access to a node's runtime from inside its DSM thread",
    "cni::dsm::DsmContext::thread":
        "test access to a node's simulated thread (delays between protocol steps)",
    "cni::obs::TraceRing::clear":
        "empties a ring in place, keeping its storage; the trace-ring tests reset one",
}

TEXT_TYPES = set("TtWw")
PRODUCTION_DIRS = ("bench", "examples", "tools")
TEST_DIRS = ("tests",)
SUFFIX_RE = re.compile(r"( \[clone [^\]]*\]|\[abi:[^\]]*\])")
THUNK_RE = re.compile(r"^(?:non-)?virtual thunk to ")
OPERATOR_RE = re.compile(r"operator(?:\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)")


def strip_groups(name):
    """`name` with every balanced <...> and (...) group removed, keeping the
    brackets that spell an operator (operator<, operator(), ...)."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        if depth == 0:
            m = OPERATOR_RE.match(name, i)
            if m and (i == 0 or not (name[i - 1].isalnum() or name[i - 1] == "_")):
                out.append(m.group(0))
                i = m.end()
                continue
        c = name[i]
        if c in "<(":
            depth += 1
        elif c in ">)" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    return "".join(out)


def function_key(demangled):
    """The comparison key of one demangled function name: template arguments
    and parameters dropped, a trailing ` const` kept, any return type that nm
    prints for a template dropped. None for a name outside `cni::`."""
    name = THUNK_RE.sub("", SUFFIX_RE.sub("", demangled))
    key = re.sub(r"\s*&+$", "", strip_groups(name).strip())  # ref-qualifier
    const = key.endswith(" const")
    if const:
        key = key[: -len(" const")].rstrip()
    # A function template's name follows its return type, which may itself be
    # a cni:: type: the name is the last top-level `cni::` word, unless that
    # word is the type of a conversion operator.
    at = key.rfind(" cni::")
    if at >= 0 and not key[:at].endswith("operator"):
        key = key[at + 1:]
    if not key.startswith("cni::"):
        return None
    return key + " const" if const else key


def parse_nm(lines, root=ROOT):
    """Keys of the text symbols in `nm -C -l --defined-only` output lines
    whose line-table entry lies under `root`/src/."""
    src = os.path.join(root, "src") + os.sep
    keys = set()
    for line in lines:
        head, tab, where = line.rstrip("\n").partition("\t")
        if not tab:
            continue
        parts = head.split(" ", 2)
        if len(parts) != 3 or parts[1] not in TEXT_TYPES:
            continue
        path = os.path.normpath(where.rsplit(":", 1)[0])
        if not path.startswith(src):
            continue
        key = function_key(parts[2])
        if key is not None:
            keys.add(key)
    return keys


def is_elf(path):
    try:
        with open(path, "rb") as f:
            return f.read(4) == b"\x7fELF"
    except OSError:
        return False


def binaries(build, subdirs):
    """The ELF executables and shared libraries directly inside each of
    `build`/`subdirs` (object files live deeper, under CMakeFiles/)."""
    found = []
    for sub in subdirs:
        d = os.path.join(build, sub)
        if not os.path.isdir(d):
            continue
        for entry in sorted(os.listdir(d)):
            p = os.path.join(d, entry)
            if os.path.isfile(p) and (os.access(p, os.X_OK) or p.endswith(".so")) and is_elf(p):
                found.append(p)
    return found


def nm_lines(path):
    return subprocess.run(["nm", "-C", "-l", "--defined-only", path], check=True,
                          capture_output=True, text=True).stdout.splitlines()


def kept_by(paths, root):
    """Union of the src/ function keys that the binaries at `paths` keep."""
    keys = set()
    with concurrent.futures.ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for lines in pool.map(nm_lines, paths):
            keys |= parse_nm(lines, root)
    return keys


def census(test_keys, prod_keys, keep=KEEP):
    """(observers, kept, unexplained, stale): the test-only keys split into
    const observers, keep-listed survivors and the rest; plus keep-list
    entries that are no longer test-only."""
    only = test_keys - prod_keys
    observers = sorted(k for k in only if k.endswith(" const"))
    others = sorted(k for k in only if not k.endswith(" const"))
    kept = [k for k in others if k in keep]
    unexplained = [k for k in others if k not in keep]
    stale = sorted(k for k in keep if k not in only)
    return observers, kept, unexplained, stale


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("build", help="census build dir of the whole tree")
    ap.add_argument("perfbench_build", help="census build dir of perfbench/")
    args = ap.parse_args()

    tests = binaries(args.build, TEST_DIRS)
    prod = binaries(args.build, PRODUCTION_DIRS)
    worker = os.path.join(args.perfbench_build, "perfbench_worker")
    if not tests or not is_elf(worker):
        print(f"census: need test binaries under {args.build}/tests and "
              f"{worker}", file=sys.stderr)
        return 2
    prod.append(worker)
    root = os.path.realpath(ROOT)
    test_keys = kept_by(tests, root)
    prod_keys = kept_by(prod, root)
    observers, kept, unexplained, stale = census(test_keys, prod_keys)

    print(f"census: {len(tests)} test and {len(prod)} production binaries; "
          f"{len(test_keys | prod_keys)} src/ functions, "
          f"{len(observers) + len(kept) + len(unexplained)} kept only by tests")
    print(f"  {len(observers)} const observers")
    for k in observers:
        print(f"    {k}")
    print(f"  {len(kept)} on the keep-list")
    for k in kept:
        print(f"    {k}: {KEEP[k]}")
    for k in stale:
        print(f"  note: keep-list entry no longer test-only: {k}")
    if unexplained:
        print(f"  {len(unexplained)} test-only with no reason to stay:")
        for k in unexplained:
            print(f"    {k}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
