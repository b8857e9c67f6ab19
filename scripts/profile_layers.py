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
    """Function symbols of one ELF file, looked up by file address."""

    def __init__(self, path):
        out = subprocess.run(["nm", "-C", "-n", "--defined-only", path],
                             capture_output=True, text=True, check=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16))
                self.names.append(parts[2])
        with open(path, "rb") as f:
            header = f.read(18)
        self.pie = header[16] == 3  # e_type ET_DYN: addresses are load-relative

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples", nargs="+", help="layer_prof.<pid>.out files")
    ap.add_argument("--json", metavar="OUT", help="also write the shares as JSON")
    args = ap.parse_args(argv)

    layers, functions, total, exe, syms = {}, {}, 0, None, None
    for path in args.samples:
        this_exe, samples, maps = read_samples(path)
        if this_exe is None:
            sys.exit(f"profile_layers: {path} is not a layer_prof sample file")
        if exe is None:
            exe, syms = this_exe, Symbols(this_exe)
        elif this_exe != exe:
            sys.exit(f"profile_layers: {path} profiled {this_exe}, not {exe}")
        for layer, function in attribute(samples, exe_ranges(maps, exe), syms):
            total += 1
            layers[layer] = layers.get(layer, 0) + 1
            key = (function, layer)
            functions[key] = functions.get(key, 0) + 1
    if total == 0:
        sys.exit("profile_layers: no samples (run for longer: about 250 arrive per CPU second)")

    def pct(n):
        return 100.0 * n / total

    print(f"{os.path.basename(exe)}: {total} samples")
    print(f"{'layer':<10} {'share':>7}")
    for layer, n in sorted(layers.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{layer:<10} {pct(n):6.1f}%")
    print(f"\ntop {TOP} functions (libc charged to its caller)")
    top = sorted(functions.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]
    for (function, layer), n in top:
        short = function if len(function) <= 100 else function[:97] + "..."
        print(f"{pct(n):6.1f}%  {layer:<8} {short}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"exe": os.path.basename(exe), "samples": total,
                       "layers": {k: round(pct(v), 2) for k, v in sorted(layers.items())},
                       "top": [{"function": fn, "layer": layer, "pct": round(pct(n), 2)}
                               for (fn, layer), n in top]}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
