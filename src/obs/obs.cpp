#include "obs/obs.hpp"

namespace cni::obs {

void RunObs::bind_node_stats(std::uint32_t i, const sim::NodeStats& st) {
  Metrics& m = node(i).metrics();
  m.reserve_counters(sim::NodeStats::fields().size());
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    m.bind_counter(f.name, &(st.*f.member));
  }
}

}  // namespace cni::obs
