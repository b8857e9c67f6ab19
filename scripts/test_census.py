#!/usr/bin/env python3
"""Self-test of census.py's name keys and verdicts, on canned `nm -C -l`
lines: no build, binary or `nm` is needed.

    python3 -m unittest discover -s scripts -p 'test_*.py'
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import census  # noqa: E402

ROOT = "/work/cni"


def nm(addr, kind, name, where):
    """One line of `nm -C -l --defined-only` output."""
    return f"{addr:016x} {kind} {name}\t{where}"


# What a test binary keeps: library functions (src/), the test's own helpers
# (tests/) and libstdc++ templates.
TEST_LINES = [
    nm(0x1000, "T", "cni::sim::Engine::run()", f"{ROOT}/src/sim/engine.cpp:120"),
    nm(0x1100, "T", "cni::sim::Engine::run_before(unsigned long)",
       f"{ROOT}/src/sim/engine.cpp:125"),
    nm(0x1200, "W", "cni::util::U64FlatMap<int>::find(unsigned long) const",
       f"{ROOT}/src/util/flat_map.hpp:44"),
    nm(0x1300, "W", "cni::util::U64FlatMap<int>::insert(unsigned long, int)",
       f"{ROOT}/src/util/flat_map.hpp:51"),
    nm(0x1400, "W", "cni::core::Widget::poke(int)", f"{ROOT}/src/core/widget.hpp:9"),
    nm(0x1500, "t", "cni::sim::(anonymous namespace)::Engine_Run_Test::TestBody()",
       f"{ROOT}/tests/test_sim_engine.cpp:30"),
    nm(0x1600, "W", "std::vector<int, std::allocator<int> >::push_back(int const&)",
       "/usr/include/c++/12/bits/stl_vector.h:1280"),
    nm(0x1700, "D", "cni::sim::kTable", f"{ROOT}/src/sim/engine.cpp:9"),
    nm(0x1800, "T", "cni::core::Widget::count() const", f"{ROOT}/src/core/widget.cpp:20"),
]

# What a production binary keeps: the same library, other instantiations.
PROD_LINES = [
    nm(0x2100, "T", "cni::sim::Engine::run_before(unsigned long)",
       f"{ROOT}/src/sim/engine.cpp:125"),
    nm(0x2200, "W", "cni::util::U64FlatMap<unsigned long>::find(unsigned long) const",
       f"{ROOT}/src/util/flat_map.hpp:44"),
    nm(0x2300, "W",
       "cni::util::U64FlatMap<unsigned long>::insert(unsigned long, unsigned long)",
       f"{ROOT}/src/util/flat_map.hpp:51"),
]


class Keys(unittest.TestCase):
    def test_templates_and_parameters_are_stripped(self):
        self.assertEqual(
            census.function_key(
                "cni::util::U64FlatMap<std::vector<int> >::insert(unsigned long, int)"),
            "cni::util::U64FlatMap::insert")
        self.assertEqual(
            census.function_key("cni::dsm::Diff cni::dsm::make_diff<int>(unsigned int, int)"),
            "cni::dsm::make_diff")  # a template's return type is dropped

    def test_const_members_keep_their_qualifier(self):
        self.assertEqual(census.function_key("cni::mem::Tlb::hits() const"),
                         "cni::mem::Tlb::hits const")
        self.assertEqual(census.function_key("cni::util::Buf::span() const &"),
                         "cni::util::Buf::span const")

    def test_operators_keep_their_brackets(self):
        self.assertEqual(
            census.function_key(
                "cni::dsm::VectorClock::operator==(cni::dsm::VectorClock const&) const"),
            "cni::dsm::VectorClock::operator== const")
        self.assertEqual(census.function_key("cni::sim::InlineFn::operator()()"),
                         "cni::sim::InlineFn::operator()")
        self.assertEqual(
            census.function_key("bool cni::x::operator< <int>(cni::x::A const&, int)"),
            "cni::x::operator<")

    def test_lambdas_clones_and_thunks_name_their_function(self):
        self.assertEqual(
            census.function_key(
                "cni::dsm::DsmRuntime::install_handlers()::{lambda(cni::core::Ctx&)#1}"
                "::operator()(cni::core::Ctx&) const"),
            "cni::dsm::DsmRuntime::install_handlers::{lambda#1}::operator() const")
        self.assertEqual(census.function_key("cni::sim::Engine::step() [clone .cold]"),
                         "cni::sim::Engine::step")
        self.assertEqual(
            census.function_key(
                "non-virtual thunk to cni::core::CniBoard::on_frame(cni::atm::Frame)"),
            "cni::core::CniBoard::on_frame")

    def test_names_outside_cni_have_no_key(self):
        self.assertIsNone(
            census.function_key("std::vector<cni::dsm::Diff>::push_back(cni::dsm::Diff&&)"))
        self.assertIsNone(census.function_key("main"))

    def test_only_text_symbols_defined_under_src_count(self):
        self.assertEqual(census.parse_nm(TEST_LINES, ROOT), {
            "cni::sim::Engine::run",
            "cni::sim::Engine::run_before",
            "cni::util::U64FlatMap::find const",
            "cni::util::U64FlatMap::insert",
            "cni::core::Widget::poke",
            "cni::core::Widget::count const",
        })
        # A tree checked out elsewhere: nothing of this one is under its src/.
        self.assertEqual(census.parse_nm(TEST_LINES, "/elsewhere"), set())


class Verdicts(unittest.TestCase):
    def setUp(self):
        self.test_keys = census.parse_nm(TEST_LINES, ROOT)
        self.prod_keys = census.parse_nm(PROD_LINES, ROOT)

    def test_a_tests_own_instantiation_is_not_test_only(self):
        observers, kept, unexplained, _ = census.census(self.test_keys, self.prod_keys, keep={})
        everything = set(observers) | set(kept) | set(unexplained)
        self.assertNotIn("cni::util::U64FlatMap::insert", everything)
        self.assertNotIn("cni::util::U64FlatMap::find const", everything)

    def test_const_observers_pass_and_others_need_a_reason(self):
        observers, kept, unexplained, stale = census.census(
            self.test_keys, self.prod_keys, keep={"cni::sim::Engine::run": "runs a test's engine"})
        self.assertEqual(observers, ["cni::core::Widget::count const"])
        self.assertEqual(kept, ["cni::sim::Engine::run"])
        self.assertEqual(unexplained, ["cni::core::Widget::poke"])
        self.assertEqual(stale, [])

    def test_a_keep_entry_that_production_reaches_is_stale(self):
        _, kept, _, stale = census.census(
            self.test_keys, self.prod_keys,
            keep={"cni::sim::Engine::run_before": "reason", "cni::core::Widget::poke": "reason"})
        self.assertEqual(kept, ["cni::core::Widget::poke"])
        self.assertEqual(stale, ["cni::sim::Engine::run_before"])

    def test_every_keep_entry_has_a_reason(self):
        for name, reason in census.KEEP.items():
            self.assertTrue(name.startswith("cni::"), name)
            self.assertFalse(name.endswith(" const"), f"{name}: const members need no entry")
            self.assertTrue(reason.strip(), name)


if __name__ == "__main__":
    unittest.main()
