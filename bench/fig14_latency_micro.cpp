// Figure 14: best-possible node-to-node latency, CNI vs standard NIC.
//
// Paper §3.3: "we estimate the best possible node-to-node latency of the CNI
// (assuming a 100% network cache hit ratio) as compared to that in the
// standard network architecture... for a 4KB page size transfer, the
// communication latency is lower for the CNI architecture by as much as
// 33%." We replay the experiment: two nodes, one-way app-level transfers of
// 0..4096 bytes, the CNI's source buffer pre-warmed into the Message Cache.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster.hpp"
#include "nic/wire.hpp"
#include "sim/channel.hpp"
#include "util/table.hpp"

namespace {

using namespace cni;

constexpr nic::MsgType kPingType = nic::kTypeAppBase + 1;

/// One-way latency for a message of `bytes`, measured at the receiver, as
/// the run's report point (this binary has no RunResult, so the point is
/// assembled from the cluster directly): its one value is the latency in us.
obs::ReportPoint measure(cluster::BoardKind board, std::uint64_t bytes) {
  cluster::SimParams params = apps::make_params(board, 2);
  cluster::Cluster cl(params);

  sim::SimChannel<atm::Frame> rx;
  cl.node(1).board().bind_channel(kPingType, &rx);

  const mem::VAddr send_buf = mem::kSharedBase;            // sender's source page(s)
  const mem::VAddr recv_buf = mem::kSharedBase + (1ull << 20);  // receiver's posted buffer

  sim::SimTime send_start = 0;
  sim::SimTime arrival = 0;

  auto make_ping = [&](std::uint32_t seq_tag) {
    nic::MsgHeader h;
    h.type = kPingType;
    h.flags = nic::kFlagCacheable;
    h.src_node = 0;
    h.seq = cl.node(0).board().next_seq();
    h.aux = seq_tag;
    h.buffer_va = bytes != 0 ? recv_buf : 0;
    std::vector<std::byte> body(bytes);
    return atm::Frame::make(0, 1, 1, h, body);
  };

  cl.run([&](std::size_t i, sim::SimThread& t) {
    nic::NicBoard::SendOptions opts;
    opts.source_va = bytes != 0 ? send_buf : 0;
    opts.cacheable = true;
    if (i == 0) {
      // Warm-up transfer binds the buffer into the Message Cache (the
      // figure assumes a 100% hit); the second transfer is the measured one.
      cl.node(0).board().send_from_host(t, make_ping(1), opts);
      t.delay(2 * sim::kMillisecond);  // let the warm-up fully drain
      cl.node(0).cpu().sync(t);
      send_start = t.engine().now();
      cl.node(0).board().send_from_host(t, make_ping(2), opts);
    } else {
      (void)cl.node(1).board().receive_app(t, rx);  // warm-up
      (void)cl.node(1).board().receive_app(t, rx);  // measured
      arrival = t.engine().now();
    }
  });
  const char* system = board == cluster::BoardKind::kCni ? "cni" : "standard";
  obs::ReportPoint pt;
  pt.label = std::string("bytes=") + std::to_string(bytes) + " system=" + system;
  pt.config = {{"bytes", std::to_string(bytes)}, {"system", system}};
  pt.values = {{"latency_us", sim::to_micros(arrival - send_start)}};
  pt.snapshot = cl.snapshot();
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  cni::obs::Reporter reporter =
      cni::bench::parse_args(argc, argv, "fig14_latency_micro").report;
  reporter.add_config("figure", "fig14");
  const std::uint64_t sizes[] = {0, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096};
  using cni::cluster::BoardKind;
  std::vector<cni::bench::Job<cni::obs::ReportPoint>> jobs;  // per size: CNI, standard
  for (const std::uint64_t bytes : sizes) {
    for (const BoardKind board : {BoardKind::kCni, BoardKind::kStandard}) {
      jobs.push_back({2, [=] { return measure(board, bytes); }});
    }
  }
  std::vector<cni::obs::ReportPoint> points = cni::bench::run_points(jobs);

  cni::util::Table t("Figure 14: node-to-node latency vs message size");
  t.set_header({"bytes", "CNI (us)", "Standard (us)", "reduction (%)"});
  double reduction_4k = 0;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const double cni = points[2 * i].values.front().second;
    const double std_ = points[2 * i + 1].values.front().second;
    const double red = 100.0 * (std_ - cni) / std_;
    if (sizes[i] == 4096) reduction_4k = red;
    t.add_row(std::to_string(sizes[i]), {cni, std_, red}, 2);
  }
  if (reporter.active()) {
    for (cni::obs::ReportPoint& pt : points) reporter.add_point(std::move(pt));
  }
  t.print();
  std::printf("\npaper: ~33%% lower latency for a 4 KB page transfer; measured: %.1f%%\n",
              reduction_4k);
  return reporter.finish() ? 0 : 1;
}
