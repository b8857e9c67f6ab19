// Per-node statistics accounts.
//
// The paper's Tables 2–4 break execution time into computation, synch
// overhead (CPU busy in protocol/messaging code) and synch delay (CPU stalled
// waiting on remote events); its figures additionally report the network
// cache hit ratio. Everything needed to regenerate them is accumulated here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cni::sim {

struct NodeStats {
  // ---- Host CPU cycle accounts (166 MHz domain) ----
  std::uint64_t compute_cycles = 0;         ///< application work incl. cache stalls
  std::uint64_t synch_overhead_cycles = 0;  ///< protocol / send / receive / interrupt CPU time
  std::uint64_t synch_delay_cycles = 0;     ///< stalled waiting for remote events

  // ---- Message Cache (the paper's "network cache") ----
  std::uint64_t mcache_tx_lookups = 0;  ///< transmit-side buffer-map probes
  std::uint64_t mcache_tx_hits = 0;     ///< transmissions served from cached buffers
  std::uint64_t mcache_rx_inserts = 0;  ///< receive-caching insertions
  std::uint64_t mcache_evictions = 0;   ///< approximate-LRU evictions
  std::uint64_t mcache_snoop_updates = 0;  ///< bus writes folded into cached buffers

  // ---- NIC / network ----
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t cells_sent = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t host_interrupts = 0;
  std::uint64_t host_polls = 0;

  // ---- DSM protocol ----
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t pages_fetched = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t diffs_applied = 0;
  std::uint64_t write_notices_received = 0;
  std::uint64_t lock_acquires = 0;
  std::uint64_t barriers = 0;

  void add(const NodeStats& other);

  /// True once at least one transmit-side lookup happened. Hit ratio is
  /// meaningless before then; callers that print ratios should check this
  /// instead of special-casing 0 lookups themselves.
  [[nodiscard]] bool has_lookups() const { return mcache_tx_lookups != 0; }

  /// Transmit hit ratio in percent. 0 when there were no lookups — a node
  /// that never probed the cache has not "hit 100%" of anything, and a NaN
  /// here would poison downstream averages. Gate on has_lookups() to tell
  /// "no traffic" apart from "all misses".
  [[nodiscard]] double tx_hit_ratio_pct() const;

  /// One entry per counter field, in declaration order.
  struct Field {
    const char* name;             ///< dotted metric name, e.g. "mcache.tx_hits"
    std::uint64_t NodeStats::* member;
  };
  /// The full counter schema. add() and every serializer iterate this table,
  /// so adding a field here is the single step that propagates it to the
  /// aggregates and the run report: a node's fields are its counters there
  /// (obs::NodeSnapshot copies the whole struct), with no second store.
  [[nodiscard]] static const std::vector<Field>& fields();
};

/// One account per simulated node plus whole-run metadata.
class StatsRegistry {
 public:
  explicit StatsRegistry(std::size_t nodes) : nodes_(nodes) {}

  [[nodiscard]] NodeStats& node(std::size_t i) { return nodes_.at(i); }
  [[nodiscard]] const NodeStats& node(std::size_t i) const { return nodes_.at(i); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Sum over all nodes.
  [[nodiscard]] NodeStats total() const;

  /// Transmit hit ratio over all nodes, in percent.
  [[nodiscard]] double tx_hit_ratio_pct() const { return total().tx_hit_ratio_pct(); }

 private:
  std::vector<NodeStats> nodes_;
};

}  // namespace cni::sim
