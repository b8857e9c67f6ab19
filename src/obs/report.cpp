#include "obs/report.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/critpath.hpp"
#include "util/log.hpp"

namespace cni::obs {
namespace {

// All numeric output goes through snprintf with explicit formats: the report
// must be byte-stable across runs and toolchains, so no iostream locale or
// default float formatting is allowed anywhere in this file.
void append_fmt(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out.append(buf, buf + (n < 0 ? 0 : (n >= static_cast<int>(sizeof(buf))
                                          ? static_cast<int>(sizeof(buf)) - 1
                                          : n)));
}

void append_u64(std::string& out, std::uint64_t v) {
  append_fmt(out, "%" PRIu64, v);
}

/// Doubles print as shortest round-trip-exact decimal (%.17g is stable for
/// a given value; the values themselves are deterministic).
void append_double(std::string& out, double v) {
  append_fmt(out, "%.17g", v);
}

/// Simulated picoseconds -> trace_event "ts" microseconds, printed as a
/// fixed-point decimal so the text never depends on float formatting.
void append_ts_us(std::string& out, std::uint64_t ps) {
  append_fmt(out, "%" PRIu64 ".%06" PRIu64, std::uint64_t{ps / 1000000U},
             std::uint64_t{ps % 1000000U});
}

void append_kv_str(std::string& out, const char* key, const std::string& value,
                   bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":\"";
  out += json_escape(value);
  out += '"';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          append_fmt(out, "\\u%04x", c);
        } else {
          out += raw;
        }
    }
  }
  return out;
}

const char* build_version() {
#if defined(CNI_GIT_DESCRIBE)
  return CNI_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::string chrome_trace_json(const std::vector<ReportPoint>& points) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) out += ',';
    first = false;
  };
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const ReportPoint& pt = points[pi];
    // Metadata events name the pid (sweep point) and tids (nodes) so the
    // viewer shows "procs=8 system=cni" instead of bare numbers.
    comma();
    append_fmt(out, "{\"ph\":\"M\",\"pid\":%zu,\"name\":\"process_name\",\"args\":{\"name\":\"",
               pi);
    out += json_escape(pt.label);
    out += "\"}}";
    for (const NodeSnapshot& node : pt.snapshot.nodes) {
      comma();
      append_fmt(out,
                 "{\"ph\":\"M\",\"pid\":%zu,\"tid\":%u,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"node %u\"}}",
                 pi, node.node, node.node);
      for (const TraceRecord& r : node.trace) {
        comma();
        out += "{\"name\":\"";
        out += event_name(r.event);
        out += "\",\"cat\":\"";
        out += component_name(r.component);
        out += "\",\"ph\":\"";
        switch (r.kind) {
          case Kind::kSpan: out += 'X'; break;
          case Kind::kCounter: out += 'C'; break;
          case Kind::kInstant: out += 'i'; break;
          case Kind::kCausal: out += 'X'; break;  // complete span; tokens in args
        }
        out += "\",\"ts\":";
        append_ts_us(out, r.time);
        if (r.kind == Kind::kSpan || r.kind == Kind::kCausal) {
          out += ",\"dur\":";
          append_ts_us(out, r.dur);
        }
        append_fmt(out, ",\"pid\":%zu,\"tid\":%u", pi, node.node);
        if (r.kind == Kind::kInstant) out += ",\"s\":\"t\"";
        if (r.kind == Kind::kCounter) {
          out += ",\"args\":{\"value\":";
          append_u64(out, r.arg0);
          out += "}}";
        } else {
          out += ",\"args\":{\"arg0\":";
          append_u64(out, r.arg0);
          out += ",\"arg1\":";
          append_u64(out, r.arg1);
          out += "}}";
        }
      }
    }
  }
  out += "],\"otherData\":{\"schema\":\"cni-chrome-trace\",\"build\":\"";
  out += json_escape(build_version());
  out += "\"}}\n";
  return out;
}

namespace {

void append_node_json(std::string& out, const NodeSnapshot& node) {
  append_fmt(out, "{\"node\":%u,\"counters\":{", node.node);
  bool first = true;
  for (const CounterSnapshot& c : node.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(c.name);
    out += "\":";
    append_u64(out, c.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistSnapshot& h : node.hists) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(h.name);
    out += "\":{\"count\":";
    append_u64(out, h.count);
    out += ",\"sum\":";
    append_u64(out, h.sum);
    out += ",\"min\":";
    append_u64(out, h.min);
    out += ",\"max\":";
    append_u64(out, h.max);
    out += ",\"p50\":";
    append_u64(out, h.p50);
    out += ",\"p95\":";
    append_u64(out, h.p95);
    out += ",\"p99\":";
    append_u64(out, h.p99);
    out += '}';
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSnapshot& g : node.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(g.name);
    out += "\":{\"value\":";
    append_fmt(out, "%" PRId64, g.value);
    out += ",\"max\":";
    append_fmt(out, "%" PRId64, g.max);
    out += '}';
  }
  out += "},\"trace\":{\"recorded\":";
  append_u64(out, node.trace_recorded);
  out += ",\"dropped\":";
  append_u64(out, node.trace_dropped);
  out += "}}";
}

/// Did any node's trace ring drop records for this point? When true the
/// causal trees (and therefore the critpath) may be missing interior spans.
bool point_truncated(const ReportPoint& pt) {
  for (const NodeSnapshot& node : pt.snapshot.nodes) {
    if (node.trace_dropped != 0) return true;
  }
  return false;
}

void append_point_json(std::string& out, const ReportPoint& pt) {
  out += "{\"label\":\"";
  out += json_escape(pt.label);
  out += "\",\"config\":{";
  bool first = true;
  for (const auto& [k, v] : pt.config) append_kv_str(out, k.c_str(), v, &first);
  out += "},\"values\":{";
  first = true;
  for (const auto& [k, v] : pt.values) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":";
    append_double(out, v);
  }
  out += "},\"legacy\":{";
  first = true;
  for (const auto& [k, v] : pt.legacy) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":";
    append_u64(out, v);
  }
  append_fmt(out, "},\"traced\":%s,\"trace_truncated\":%s,\"critpath\":",
             pt.snapshot.traced ? "true" : "false",
             point_truncated(pt) ? "true" : "false");
  out += critpath_report_fragment(extract_critical_path(pt.snapshot));
  out += ",\"nodes\":[";
  first = true;
  for (const NodeSnapshot& node : pt.snapshot.nodes) {
    if (!first) out += ',';
    first = false;
    append_node_json(out, node);
  }
  // Totals: every counter name summed across nodes, in first-appearance
  // order. This is the section validate_report.py diffs against "legacy".
  std::vector<std::pair<std::string, std::uint64_t>> totals;
  for (const NodeSnapshot& node : pt.snapshot.nodes) {
    for (const CounterSnapshot& c : node.counters) {
      bool found = false;
      for (auto& [name, sum] : totals) {
        if (name == c.name) {
          sum += c.value;
          found = true;
          break;
        }
      }
      if (!found) totals.emplace_back(c.name, c.value);
    }
  }
  out += "],\"totals\":{";
  first = true;
  for (const auto& [k, v] : totals) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":";
    append_u64(out, v);
  }
  out += "}}";
}

}  // namespace

std::string run_report_json(
    const std::string& binary,
    const std::vector<std::pair<std::string, std::string>>& config,
    const std::vector<ReportPoint>& points) {
  std::string out;
  out += "{\"schema\":\"cni-run-report\",\"version\":";
  append_u64(out, kReportVersion);
  out += ",\"build\":\"";
  out += json_escape(build_version());
  out += "\",\"binary\":\"";
  out += json_escape(binary);
  // The simulator is deterministic by construction (no RNG in the model);
  // the seed field exists so the schema survives a future stochastic mode.
  out += "\",\"seed\":0,\"trace_truncated\":";
  bool any_truncated = false;
  for (const ReportPoint& pt : points) any_truncated = any_truncated || point_truncated(pt);
  out += any_truncated ? "true" : "false";
  out += ",\"config\":{";
  bool first = true;
  for (const auto& [k, v] : config) append_kv_str(out, k.c_str(), v, &first);
  out += "},\"points\":[";
  first = true;
  for (const ReportPoint& pt : points) {
    if (!first) out += ',';
    first = false;
    append_point_json(out, pt);
  }
  out += "]}\n";
  return out;
}

bool write_text_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    CNI_LOG_ERROR("obs: cannot open %s for writing", path.c_str());
    return false;
  }
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = n == contents.size() && std::fclose(f) == 0;
  if (!ok) CNI_LOG_ERROR("obs: short write to %s", path.c_str());
  return ok;
}

bool Reporter::finish() const {
  bool ok = true;
  if (!files_.trace.empty()) {
    ok = write_text_file(files_.trace, chrome_trace_json(points_)) && ok;
  }
  if (!files_.metrics.empty()) {
    ok = write_text_file(files_.metrics, run_report_json(binary_, config_, points_)) && ok;
  }
  if (!files_.critpath.empty()) {
    std::vector<std::pair<std::string, CritPath>> cps;
    cps.reserve(points_.size());
    for (const ReportPoint& pt : points_) {
      cps.emplace_back(pt.label, extract_critical_path(pt.snapshot));
    }
    ok = write_text_file(files_.critpath, critpath_json(cps)) && ok;
  }
  return ok;
}

}  // namespace cni::obs
