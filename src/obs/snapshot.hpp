// Materialized observability results.
//
// A Metrics registry is full of *views* — bound counters point into the
// cluster's NodeStats accounts, which die with the Cluster. A Snapshot copies
// every value out at end of run so RunResult can carry the numbers past the
// simulation's lifetime, into report writers and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cni::obs {

struct HistSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t max = 0;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct NodeSnapshot {
  std::uint32_t node = 0;
  std::vector<CounterSnapshot> counters;
  std::vector<HistSnapshot> hists;
  std::vector<GaugeSnapshot> gauges;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<TraceRecord> trace;  ///< live ring contents, oldest-first (empty unless tracing)

  [[nodiscard]] std::uint64_t counter_or(const std::string& name, std::uint64_t fallback) const {
    for (const CounterSnapshot& c : counters) {
      if (c.name == name) return c.value;
    }
    return fallback;
  }
};

struct Snapshot {
  bool traced = false;  ///< were the rings recording during the run?
  std::vector<NodeSnapshot> nodes;

  /// Sum of one named counter across all nodes (0 if absent everywhere).
  [[nodiscard]] std::uint64_t total_counter(const std::string& name) const {
    std::uint64_t t = 0;
    for (const NodeSnapshot& n : nodes) t += n.counter_or(name, 0);
    return t;
  }
};

}  // namespace cni::obs
