// Interconnect topologies: routing + timing behind one interface.
//
// The paper's fabric is a single 32-port banyan; the Clos and torus scale
// the cluster past one switch. Every topology answers the same two
// questions:
//
//   * route()        — when does a burst's head emerge at the destination
//                      port, given contention with earlier bursts?
//   * min_latency()  — the zero-load lower bound for a src/dst pair, the
//                      ingredient of the collective tree's cost model.
//
// Three implementations: the original single-stage banyan (bit-identical to
// the pre-topology fabric), a folded Clos (k-ary n-tree) of banyan blocks
// with credit-based backpressure on the inter-stage links, and a 3D torus
// with dimension-order routing and per-hop latency in the APEnet+ regime.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "atm/banyan.hpp"
#include "atm/cell.hpp"
#include "atm/packet.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace cni::atm {

enum class TopologyKind : std::uint8_t {
  kBanyan,  ///< single-stage banyan, the paper's switch
  kClos,    ///< folded Clos (k-ary n-tree) of banyan blocks
  kTorus,   ///< 3D torus, dimension-order routed (APEnet+)
};

/// CLI/report spelling of a kind: "banyan", "clos", "torus".
[[nodiscard]] const char* topology_name(TopologyKind kind);

/// Parses a topology_name() spelling; returns false on anything else.
[[nodiscard]] bool parse_topology(const char* text, TopologyKind& out);

/// Process-wide default fabric shape, consumed by FabricParams' default
/// member initializers. Set once at startup (the bench harness's argv parse,
/// before any sweep worker builds a SimParams) — the same single-writer-
/// then-read-only discipline as obs::default_options().
[[nodiscard]] TopologyKind default_topology();
[[nodiscard]] std::uint32_t default_switch_ports();
void set_default_fabric_shape(TopologyKind kind, std::uint32_t ports);

struct FabricParams {
  std::uint64_t link_bits_per_sec = util::kSts12BitsPerSec;
  sim::SimDuration switch_latency = 500 * sim::kNanosecond;  // Table 1
  sim::SimDuration propagation = 150 * sim::kNanosecond;     // Table 1 ("network latency")
  std::uint32_t switch_ports = default_switch_ports();
  CellMode cell_mode = CellMode::kStandard;
  TopologyKind topology = default_topology();
  /// Clos only: radix of each banyan block (ports per switch element, half
  /// down / half up except the top tier). Power of two >= 4.
  std::uint32_t clos_radix = 32;
  /// Clos/torus: per-link credit window — a burst may not start onto a link
  /// until the buffer slot taken `link_credits` bursts earlier has drained.
  std::uint32_t link_credits = 4;
  /// Torus only: router traversal per hop. APEnet+ reports a few hundred ns
  /// per hop for its 3D-torus router, far below a full multi-stage switch.
  sim::SimDuration torus_hop_latency = 200 * sim::kNanosecond;
};

/// Optional per-route attribution, filled only for traced frames: where a
/// burst's head time went between fabric entry and the destination output.
/// Collecting it never touches link/switch state, so a traced run times
/// identically to an untraced one; the fabric packs the totals into
/// Frame::fab (atm::FabBreakdown) and the destination node emits them as
/// causal records at delivery, where event order is deterministic.
struct RouteTrace {
  sim::SimDuration wire = 0;     ///< pure latency: switch pipelines, link flight
  sim::SimDuration contend = 0;  ///< waits on busy ports / wires
  sim::SimDuration credit = 0;   ///< waits for a credit (backpressure)
  std::uint32_t hops = 0;        ///< switch stages + links traversed
};

/// A bounded inter-switch link: serialization (one burst at a time, in
/// arrival order) plus credit-based backpressure — the sender holds one of
/// `credits` buffer slots per burst in flight, and a new burst may not start
/// until the slot taken `credits` bursts ago has drained at the far end.
/// Deterministic: state advances only in the canonical routing order, like
/// sim::ServiceQueue.
class CreditLink {
 public:
  void configure(std::uint32_t credits, sim::SimDuration latency);

  /// Sends a burst whose head reaches the link at `head`. Returns when the
  /// head emerges at the far end; the wait for the wire and for a credit is
  /// added to `queued`. When `rt` is non-null the wire/contention/credit
  /// split of this traversal is accumulated into it.
  sim::SimTime traverse(sim::SimTime head, sim::SimDuration burst,
                        sim::SimDuration& queued, RouteTrace* rt = nullptr);

  [[nodiscard]] std::uint64_t bursts() const { return sent_; }

 private:
  sim::SimDuration latency_ = 0;
  sim::SimTime busy_until_ = 0;     // wire: one burst serializes at a time
  std::vector<sim::SimTime> ring_;  // slot i: when burst (sent_ - credits + i) drains
  std::uint64_t sent_ = 0;
};

/// Routing + timing interface the Fabric delegates to. Stateful (contention
/// queues): route() must be called in the fabric's canonical transfer order.
/// Virtual dispatch is fine here — route() is called once per frame, not per
/// event.
class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual TopologyKind kind() const = 0;
  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] const char* name() const { return topology_name(kind()); }

  /// Routes a burst entering at `src` at time `head` toward `dst`, occupying
  /// each traversed resource for `burst`. Returns when the head emerges at
  /// the destination output (before the downlink). A non-null `rt` collects
  /// the per-category attribution of this route without perturbing state.
  virtual sim::SimTime route(sim::SimTime head, NodeId src, NodeId dst,
                             sim::SimDuration burst, RouteTrace* rt = nullptr) = 0;

  /// Zero-load head latency src -> dst (no contention, no downlink).
  [[nodiscard]] virtual sim::SimDuration min_latency(NodeId src, NodeId dst) const = 0;

  /// min_latency minimized over all distinct pairs: the global cross-node
  /// traversal floor (Fabric::min_lookahead builds on it).
  [[nodiscard]] virtual sim::SimDuration min_cross_latency() const = 0;

  /// Total queueing time (contention + credit waits).
  [[nodiscard]] virtual sim::SimDuration contention_time() const = 0;
  [[nodiscard]] virtual std::uint64_t bursts_routed() const = 0;

 protected:
  explicit Topology(std::uint32_t ports) : ports_(ports) {}

  std::uint32_t ports_;
};

/// The paper's fabric: every port one hop through one shared banyan.
class SingleStageTopology final : public Topology {
 public:
  SingleStageTopology(std::uint32_t ports, sim::SimDuration switch_latency);

  [[nodiscard]] TopologyKind kind() const override { return TopologyKind::kBanyan; }
  sim::SimTime route(sim::SimTime head, NodeId src, NodeId dst, sim::SimDuration burst,
                     RouteTrace* rt = nullptr) override;
  [[nodiscard]] sim::SimDuration min_latency(NodeId src, NodeId dst) const override;
  [[nodiscard]] sim::SimDuration min_cross_latency() const override;
  [[nodiscard]] sim::SimDuration contention_time() const override {
    return switch_.contention_time();
  }
  [[nodiscard]] std::uint64_t bursts_routed() const override {
    return switch_.bursts_routed();
  }

 private:
  BanyanSwitch switch_;
};

/// Folded Clos / k-ary n-tree: tiers() tiers of radix-m banyan blocks, each
/// with m/2 down-ports and m/2 up-ports. A burst ascends to the nearest
/// common ancestor tier of src and dst (up-port chosen by dst's digits, so
/// the route is deterministic), turns around inside that block, and descends
/// along dst's base-(m/2) digits. Blocks model internal contention with the
/// full BanyanSwitch resource machinery; inter-tier links are CreditLinks.
class ClosTopology final : public Topology {
 public:
  ClosTopology(std::uint32_t ports, std::uint32_t radix, std::uint32_t credits,
               sim::SimDuration switch_latency, sim::SimDuration propagation);

  [[nodiscard]] TopologyKind kind() const override { return TopologyKind::kClos; }
  sim::SimTime route(sim::SimTime head, NodeId src, NodeId dst, sim::SimDuration burst,
                     RouteTrace* rt = nullptr) override;
  [[nodiscard]] sim::SimDuration min_latency(NodeId src, NodeId dst) const override;
  [[nodiscard]] sim::SimDuration min_cross_latency() const override;
  [[nodiscard]] sim::SimDuration contention_time() const override;
  [[nodiscard]] std::uint64_t bursts_routed() const override { return bursts_; }

  // ---- Structure, exposed for tests ----

  /// Down-arity d = radix/2: hosts per leaf, children per inner switch.
  [[nodiscard]] std::uint32_t down_arity() const { return down_; }
  [[nodiscard]] std::uint32_t tiers() const { return tiers_; }
  /// Switch count at `tier` (N/d when ports is a power of the arity; a
  /// pruned top tier keeps one partial group).
  [[nodiscard]] std::uint32_t tier_switches(std::uint32_t tier) const;
  /// The leaf switch hosting `node`.
  [[nodiscard]] std::uint32_t leaf_of(NodeId node) const { return node >> down_bits_; }
  /// Tier of the nearest common ancestor of two distinct hosts: 0 when they
  /// share a leaf, tiers()-1 when they differ in the top base-d digit.
  [[nodiscard]] std::uint32_t ancestor_tier(NodeId a, NodeId b) const;
  /// Index (within its tier) of the switch the a->b route crosses at `tier`
  /// on its way up (equal, at the turnaround tier, to the descent switch).
  [[nodiscard]] std::uint32_t route_switch(std::uint32_t tier, NodeId a, NodeId b) const;

 private:
  [[nodiscard]] std::uint32_t digit(NodeId n, std::uint32_t tier) const {
    return (n >> (tier * down_bits_)) & (down_ - 1);
  }

  std::uint32_t down_;       // d = radix/2
  std::uint32_t down_bits_;  // log2(d)
  std::uint32_t tiers_;      // smallest T with d^T >= ports
  sim::SimDuration switch_latency_;
  sim::SimDuration propagation_;
  std::vector<std::vector<BanyanSwitch>> blocks_;  // [tier][switch]
  std::vector<std::vector<CreditLink>> up_links_;  // [tier][switch*d + up_port]
  std::vector<std::vector<CreditLink>> down_links_;  // [tier][parent*d + down_port]
  sim::SimDuration queued_ = 0;  // credit/wire waits (block queueing is in blocks_)
  std::uint64_t bursts_ = 0;
};

/// 3D torus, dimension-order (x, then y, then z) routing with shortest-wrap
/// direction per dimension (ties broken toward +). Each directed neighbor
/// link is a CreditLink of latency torus_hop_latency + propagation; a hop's
/// head cost is that latency, contention is serialization + credit waits.
class TorusTopology final : public Topology {
 public:
  struct Dims {
    std::uint32_t x = 1, y = 1, z = 1;
  };

  TorusTopology(std::uint32_t ports, std::uint32_t credits, sim::SimDuration hop_latency,
                sim::SimDuration propagation);

  [[nodiscard]] TopologyKind kind() const override { return TopologyKind::kTorus; }
  sim::SimTime route(sim::SimTime head, NodeId src, NodeId dst, sim::SimDuration burst,
                     RouteTrace* rt = nullptr) override;
  [[nodiscard]] sim::SimDuration min_latency(NodeId src, NodeId dst) const override;
  [[nodiscard]] sim::SimDuration min_cross_latency() const override;
  [[nodiscard]] sim::SimDuration contention_time() const override { return queued_; }
  [[nodiscard]] std::uint64_t bursts_routed() const override { return bursts_; }

  // ---- Structure, exposed for tests ----

  /// Balanced power-of-two factorization of the port count, x >= y >= z.
  [[nodiscard]] Dims dims() const { return dims_; }
  [[nodiscard]] Dims coords(NodeId node) const;
  /// Dimension-order hop count (wrapped L1 distance).
  [[nodiscard]] std::uint32_t hops(NodeId a, NodeId b) const;

 private:
  /// Signed shortest step count along one dimension (ties -> positive).
  [[nodiscard]] static std::int32_t wrap_delta(std::uint32_t from, std::uint32_t to,
                                               std::uint32_t size);

  Dims dims_;
  std::uint32_t x_bits_ = 0, y_bits_ = 0;
  sim::SimDuration hop_cost_;  // torus_hop_latency + propagation
  // Directed link (node, dim, dir): links_[node*6 + dim*2 + (dir < 0)].
  std::vector<CreditLink> links_;
  sim::SimDuration queued_ = 0;
  std::uint64_t bursts_ = 0;
};

/// Builds the topology `params` asks for (validating shape constraints).
[[nodiscard]] std::unique_ptr<Topology> make_topology(const FabricParams& params);

}  // namespace cni::atm
