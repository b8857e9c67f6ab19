#!/usr/bin/env python3
"""Host time by simulator layer, from tools/layer_prof.cpp's samples.

    cmake --build build --target cni_layer_prof
    LD_PRELOAD=build/tools/libcni_layer_prof.so build/bench/fig06_water_speedup_64
    python3 scripts/profile_layers.py [--json OUT] layer_prof.*.out

A sample is charged to the nearest frame inside the profiled executable:
time in libc, libstdc++ or the loader goes to the function that called it.
That function's layer is the namespace after `cni::` in its demangled name
(`cni::dsm::DsmRuntime::fault` is `dsm`); a std:: template instantiated by
simulator code takes the layer of its nearest cni:: caller. Samples with no
cni:: frame at all (start-up, a bench binary's own main) count as `other`,
so the layer shares always sum to 100 %. Inlined code lands in its caller:
the per-word memory path, inlined into the app kernels, reads as `apps`.

Symbols come from binutils `nm`; the script needs nothing outside the
standard library. Several sample files (one per process) add up, as long as
they profiled the same executable.
"""
import argparse
import bisect
import json
import os
import re
import subprocess
import sys

# `cni::<layer>::...`, after a plain return type if nm shows one.
LAYER_RE = re.compile(r"^(?:[\w:*&]+ )*cni::([a-z_]+)::")
TOP = 15  # functions listed


class Symbols:
    """Function symbols of one ELF file, looked up by file address.
    `entries` are (address, demangled name) pairs in address order; `pie`
    says the addresses are relative to the load base."""

    def __init__(self, entries, pie):
        self.addrs = [addr for addr, _ in entries]
        self.names = [name for _, name in entries]
        self.pie = pie

    @classmethod
    def of_file(cls, path):
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", path],
                             capture_output=True, text=True, check=True).stdout
        entries = []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                entries.append((int(parts[0], 16), parts[2]))
        with open(path, "rb") as f:
            header = f.read(18)
        return cls(entries, pie=header[16] == 3)  # e_type ET_DYN

    def name(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[i] if i >= 0 else None


def layer_of(name):
    m = LAYER_RE.match(name)
    return m.group(1) if m else None


def read_samples(path):
    exe, samples, maps = None, [], []
    with open(path) as f:
        for line in f:
            if line.startswith("S"):
                pcs = [int(x, 16) for x in line.split()[1:] if x.startswith("0x")]
                if pcs:
                    samples.append(pcs)
            elif line.startswith("M "):
                maps.append(line[2:].rstrip("\n"))
            elif line.startswith("exe "):
                exe = line[4:].rstrip("\n")
    return exe, samples, maps


def exe_ranges(maps, exe):
    """(start, end, load base) of each mapping of `exe`."""
    out, base = [], None
    for m in maps:
        fields = m.split(None, 5)
        if len(fields) < 6 or fields[5] != exe:
            continue
        start, end = (int(x, 16) for x in fields[0].split("-"))
        offset = int(fields[2], 16)
        if base is None:
            base = start - offset
        out.append((start, end, base))
    return out


def attribute(samples, ranges, syms):
    """Per sample: (layer, charged function)."""
    def in_exe(pc):
        for start, end, base in ranges:
            if start <= pc < end:
                return pc - base if syms.pie else pc
        return None

    for pcs in samples:
        function, layer = None, None
        for depth, pc in enumerate(pcs):
            # A caller frame holds a return address: look up the call itself.
            addr = in_exe(pc if depth == 0 else pc - 1)
            if addr is None:
                continue
            name = syms.name(addr)
            if name is None:
                continue
            if function is None:
                function = name
            layer = layer_of(name)
            if layer is not None:
                break
        yield layer or "other", function or "(outside the executable)"


def summarize(charged, top=TOP):
    """Layer shares and the `top` functions of (layer, function) pairs, in
    percent of all pairs: {"samples", "layers", "top"}."""
    layers, functions = {}, {}
    for layer, function in charged:
        layers[layer] = layers.get(layer, 0) + 1
        functions[(function, layer)] = functions.get((function, layer), 0) + 1
    total = sum(layers.values())
    ranked = sorted(functions.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return {
        "samples": total,
        "layers": {k: 100.0 * n / total for k, n in sorted(layers.items())},
        "top": [{"function": fn, "layer": layer, "pct": 100.0 * n / total}
                for (fn, layer), n in ranked],
    }


def rounded(prof):
    """`prof` with its percentages rounded to two decimals, for JSON."""
    return {**prof,
            "layers": {k: round(v, 2) for k, v in prof["layers"].items()},
            "top": [{**row, "pct": round(row["pct"], 2)} for row in prof["top"]]}


def profile(paths, top=TOP):
    """summarize() over every sample of `paths`, sample files of one
    executable, plus that executable's file name as "exe"."""
    charged, exe, syms = [], None, None
    for path in paths:
        this_exe, samples, maps = read_samples(path)
        if this_exe is None:
            sys.exit(f"profile_layers: {path} is not a layer_prof sample file")
        if exe is None:
            exe, syms = this_exe, Symbols.of_file(this_exe)
        elif this_exe != exe:
            sys.exit(f"profile_layers: {path} profiled {this_exe}, not {exe}")
        charged.extend(attribute(samples, exe_ranges(maps, exe), syms))
    if not charged:
        sys.exit("profile_layers: no samples (run for longer: about 250 arrive per CPU second)")
    return {"exe": os.path.basename(exe), **summarize(charged, top)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples", nargs="+", help="layer_prof.<pid>.out files")
    ap.add_argument("--json", metavar="OUT", help="also write the shares as JSON")
    args = ap.parse_args(argv)

    prof = profile(args.samples)
    print(f"{prof['exe']}: {prof['samples']} samples")
    print(f"{'layer':<10} {'share':>7}")
    for layer, pct in sorted(prof["layers"].items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{layer:<10} {pct:6.1f}%")
    print(f"\ntop {TOP} functions (libc charged to its caller)")
    for row in prof["top"]:
        function = row["function"]
        short = function if len(function) <= 100 else function[:97] + "..."
        print(f"{row['pct']:6.1f}%  {row['layer']:<8} {short}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rounded(prof), f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
