#include "cluster/params.hpp"

#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace cni::cluster {

namespace {
CollectiveMode g_default_collective = CollectiveMode::kHost;
}  // namespace

CollectiveMode default_collective() { return g_default_collective; }

void set_default_collective(CollectiveMode mode) { g_default_collective = mode; }

const char* collective_name(CollectiveMode mode) {
  return mode == CollectiveMode::kNic ? "nic" : "host";
}

bool parse_collective(const char* text, CollectiveMode& out) {
  const std::string_view v(text);
  if (v == "nic") {
    out = CollectiveMode::kNic;
    return true;
  }
  if (v == "host") {
    out = CollectiveMode::kHost;
    return true;
  }
  return false;
}

util::Table SimParams::to_table() const {
  util::Table t("Table 1: Simulation Parameters");
  auto mhz = [](std::uint64_t hz) {
    return util::format_double(static_cast<double>(hz) / 1e6, 0) + " MHz";
  };
  t.add_row({"CPU Frequency", mhz(cpu_freq_hz)});
  t.add_row({"Primary Cache Access Time", std::to_string(cache.l1_latency_cycles) + " cycle"});
  t.add_row({"Primary Cache Size", std::to_string(cache.l1_size / 1024) + "K unified"});
  t.add_row({"Secondary Cache Access Time", std::to_string(cache.l2_latency_cycles) + " cycles"});
  t.add_row({"Secondary Cache Size", std::to_string(cache.l2_size / (1024 * 1024)) + " MB unified"});
  t.add_row({"Cache Organization", "Direct-mapped"});
  t.add_row({"Cache Policy", cache.write_back ? "Write-back" : "Write-through"});
  t.add_row({"Memory Latency", std::to_string(cache.memory_latency_cycles) + " cycles"});
  t.add_row({"Bus Acquisition Time", std::to_string(bus.acquisition_cycles) + " cycles"});
  t.add_row({"Bus Transfer Rate", std::to_string(bus.cycles_per_word) + " cycles per word"});
  t.add_row({"Bus Frequency", mhz(bus.freq_hz)});
  t.add_row({"Switch Latency",
             util::format_double(static_cast<double>(fabric.switch_latency) / sim::kNanosecond, 0) + " ns"});
  t.add_row({"Network Processor Frequency", mhz(nic.nic_freq_hz)});
  t.add_row({"Network Latency",
             util::format_double(static_cast<double>(fabric.propagation) / sim::kNanosecond, 0) + " ns"});
  t.add_row({"Interrupt Latency",
             util::format_double(static_cast<double>(nic.interrupt_latency) / sim::kMicrosecond, 0) + " us"});
  t.add_row({"Message Cache Size", std::to_string(cni.message_cache_bytes / 1024) + " KB"});
  t.add_row({"Page Size", std::to_string(page_size) + " bytes"});
  t.add_row({"Link Rate", "622 Mbps (STS-12)"});
  return t;
}

}  // namespace cni::cluster
