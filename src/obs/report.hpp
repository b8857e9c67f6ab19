// Machine-readable run artifacts.
//
// Two exports, both deterministic byte-for-byte for a given simulation:
//   * Chrome trace_event JSON (chrome://tracing, Perfetto) built from the
//     per-node trace rings; timestamps are simulated microseconds.
//   * A versioned run report (schema "cni-run-report") carrying build id,
//     config, figure values, per-node metrics and histogram percentiles —
//     what scripts/bench_engine.py and scripts/validate_report.py consume.
//
// The Reporter class is what every bench main hands its finished points:
// it is built with the output files the command line asked for (the bench
// harness reads argv and installs the trace options before any sweep
// thread starts), collects one ReportPoint per sweep point, and writes the
// files at the end.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/options.hpp"
#include "obs/snapshot.hpp"

namespace cni::obs {

/// Bumped whenever the report layout changes; validate_report.py pins it.
/// v2: per-point "trace_truncated" + "critpath", top-level "trace_truncated".
inline constexpr std::uint32_t kReportVersion = 2;

/// Results of one sweep point (one Cluster run).
struct ReportPoint {
  std::string label;  ///< e.g. "procs=8 system=cni"
  std::vector<std::pair<std::string, std::string>> config;  ///< point config
  std::vector<std::pair<std::string, double>> values;       ///< figure numbers
  /// Legacy NodeStats totals, serialized through NodeStats::fields() by the
  /// caller. Redundant with summing the snapshot's bound counters — which is
  /// the point: validate_report.py diffs the two to prove the metrics
  /// registry never drifts from the accounts the figures are computed from.
  std::vector<std::pair<std::string, std::uint64_t>> legacy;
  Snapshot snapshot;
};

/// Version string baked in by the build (git describe), "unknown" otherwise.
[[nodiscard]] const char* build_version();

[[nodiscard]] std::string json_escape(const std::string& s);

/// Chrome trace_event JSON for all points (pid = point index, tid = node).
[[nodiscard]] std::string chrome_trace_json(const std::vector<ReportPoint>& points);

/// The versioned run report. `config` is run-level (figure id, app, ...).
[[nodiscard]] std::string run_report_json(
    const std::string& binary,
    const std::vector<std::pair<std::string, std::string>>& config,
    const std::vector<ReportPoint>& points);

/// Writes `contents` to `path`; returns false (and logs) on failure.
bool write_text_file(const std::string& path, const std::string& contents);

/// The files a figure/table binary writes when it finishes; an empty path
/// is a file not asked for.
struct ReportFiles {
  std::string trace;     ///< --trace-out: Chrome trace_event JSON
  std::string metrics;   ///< --metrics-out: cni-run-report JSON
  std::string critpath;  ///< --critpath-out: cni-critpath JSON
};

/// Reporting for a figure/table binary: collects its points and writes the
/// files it was built with.
class Reporter {
 public:
  Reporter(std::string binary, ReportFiles files)
      : binary_(std::move(binary)), files_(std::move(files)) {}

  /// Is any output file requested at all?
  [[nodiscard]] bool active() const {
    return !files_.trace.empty() || !files_.metrics.empty() || !files_.critpath.empty();
  }

  void add_config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void add_point(ReportPoint pt) { points_.push_back(std::move(pt)); }

  /// Writes the requested files. Returns false if any write failed.
  bool finish() const;

 private:
  std::string binary_;
  ReportFiles files_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<ReportPoint> points_;
};

}  // namespace cni::obs
