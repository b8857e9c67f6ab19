#!/usr/bin/env python3
"""Self-test of profile_layers.py's attribution rules, on synthetic symbols
and samples: no binary, sample file or `nm` is needed.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import profile_layers as pl  # noqa: E402

# A position-independent executable loaded at BASE. Its functions, by file
# address; each ends where the next begins.
BASE = 0x5555_0000_0000
EXE = "/bench/fig08_water_speedup_343"
SYMS = pl.Symbols([
    (0x1000, "main"),
    (0x2000, "cni::mem::CacheModel::miss(unsigned long, bool)"),
    (0x3000, "cni::dsm::DsmRuntime::access(unsigned long, unsigned int, bool)"),
    (0x4000, "void std::__introsort_loop<cni::dsm::Diff*, long>(cni::dsm::Diff*, long)"),
    (0x5000, "void cni::dsm::sort_for_apply(std::vector<cni::dsm::Diff>&)"),
    (0x6000, "_fini"),
], pie=True)
RANGES = pl.exe_ranges([
    f"{BASE:x}-{BASE + 0x10000:x} r-xp 00000000 08:01 42 {EXE}",
    "7f0000000000-7f0000100000 r-xp 00000000 08:01 7 /usr/lib/libc.so.6",
], EXE)
LIBC_PC = 0x7F00_0000_1234


def at(addr):
    """The run-time PC of file address `addr`."""
    return BASE + addr


def charge(*pcs):
    """(layer, function) of one sample: its interrupted PC, then return
    addresses outward."""
    return next(pl.attribute([list(pcs)], RANGES, SYMS))


class LayerRules(unittest.TestCase):
    def test_the_namespace_after_cni_is_the_layer(self):
        self.assertEqual(pl.layer_of("cni::dsm::DsmRuntime::access(unsigned long)"), "dsm")
        self.assertEqual(pl.layer_of("void cni::sim::Engine::sift_down(unsigned int)"), "sim")
        self.assertEqual(pl.layer_of("cni::util::Buf::~Buf()"), "util")
        self.assertIsNone(pl.layer_of("std::vector<cni::dsm::Diff>::push_back(cni::dsm::Diff&&)"))
        self.assertIsNone(pl.layer_of("main"))
        self.assertEqual(charge(at(0x2010)), ("mem", SYMS.names[1]))

    def test_libc_time_goes_to_the_nearest_cni_caller(self):
        # memcpy inside libc, called from CacheModel::miss.
        self.assertEqual(charge(LIBC_PC, at(0x2040)), ("mem", SYMS.names[1]))
        # A return address is the instruction after the call: one that ends
        # CacheModel::miss (0x3000) is still a call from miss, not access.
        self.assertEqual(charge(LIBC_PC, at(0x3000), at(0x5010)), ("mem", SYMS.names[1]))
        # A std:: template the simulator instantiated is the charged function,
        # but takes the layer of its nearest cni:: caller.
        self.assertEqual(charge(LIBC_PC, at(0x4010), at(0x5020), at(0x1010)),
                         ("dsm", SYMS.names[3]))

    def test_a_sample_with_no_cni_frame_is_other(self):
        self.assertEqual(charge(at(0x1010)), ("other", "main"))
        self.assertEqual(charge(LIBC_PC, at(0x1020)), ("other", "main"))
        self.assertEqual(charge(LIBC_PC), ("other", "(outside the executable)"))

    def test_the_shares_sum_to_100(self):
        samples = [[at(0x2010)], [LIBC_PC, at(0x3010)], [at(0x3020)],
                   [LIBC_PC, at(0x4010), at(0x5010)], [at(0x1010)], [LIBC_PC]]
        prof = pl.summarize(pl.attribute(samples, RANGES, SYMS), top=2)
        self.assertEqual(prof["samples"], 6)
        self.assertEqual(set(prof["layers"]), {"mem", "dsm", "other"})
        self.assertAlmostEqual(prof["layers"]["dsm"], 50.0)
        self.assertAlmostEqual(sum(prof["layers"].values()), 100.0)
        self.assertAlmostEqual(sum(pl.rounded(prof)["layers"].values()), 100.0, delta=0.1)
        self.assertEqual(prof["top"][0]["function"], SYMS.names[2])
        self.assertAlmostEqual(prof["top"][0]["pct"], 100.0 * 2 / 6)
        self.assertEqual(len(prof["top"]), 2)


if __name__ == "__main__":
    unittest.main()
