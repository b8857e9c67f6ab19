// Materialized observability results.
//
// A node's counters live in the cluster's sim::NodeStats accounts and its
// histograms, gauges and trace ring in its NodeObs; all of them die with
// the Cluster. A Snapshot copies every value out at end of run so RunResult
// can carry the numbers past the simulation's lifetime, into report writers
// and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/stats.hpp"

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

struct NodeSnapshot {
  std::uint32_t node = 0;
  sim::NodeStats stats;  ///< the node's counters, named by NodeStats::fields()
  std::vector<HistSnapshot> hists;
  std::vector<GaugeSnapshot> gauges;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<TraceRecord> trace;  ///< live ring contents, oldest-first (empty unless tracing)
};

struct Snapshot {
  bool traced = false;  ///< were the rings recording during the run?
  std::vector<NodeSnapshot> nodes;
};

}  // namespace cni::obs
