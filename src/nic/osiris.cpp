#include "nic/osiris.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace cni::nic {

OsirisBoard::OsirisBoard(sim::Engine& engine, atm::Fabric& fabric, HostSystem& host,
                         const NicParams& params, atm::NodeId node)
    : engine_(engine),
      fabric_(fabric),
      host_(host),
      params_(params),
      node_(node),
      nic_clock_(params.nic_freq_hz),
      obs_(host.obs()) {
  // cni-lint: allow(hot-path-alloc): the delivery hook is installed once
  // when the board is wired to the fabric, not per frame (and this capture
  // fits std::function's SBO anyway).
  fabric_.attach(node, [this](atm::Frame f) { on_frame(std::move(f)); });
}

void OsirisBoard::install_handler(MsgType type, Handler handler, std::uint64_t code_bytes) {
  (void)code_bytes;  // the CNI override accounts handler memory; the base keeps the table
  CNI_CHECK_GE(type, kTypeHandlerBase);
  CNI_CHECK_MSG(handler != nullptr, "installing an empty handler");
  const std::size_t slot = std::size_t{type} - kTypeHandlerBase;
  if (slot >= handlers_.size()) {
    handlers_.reserve(slot + 1);  // exactly: the table is sized by its highest type
    handlers_.resize(slot + 1);
  }
  CNI_CHECK_MSG(handlers_[slot] == nullptr, "handler type already installed");
  handlers_[slot] = std::move(handler);
}

void OsirisBoard::bind_channel(MsgType type, sim::SimChannel<atm::Frame>* channel) {
  CNI_CHECK(channel != nullptr);
  CNI_CHECK_MSG(channels_.find(type) == nullptr, "channel type already bound");
  channels_.insert(type, channel);
}

sim::SimDuration OsirisBoard::sar_time(std::uint64_t bytes) const {
  const std::uint64_t cells = fabric_.cells().cells_for(bytes);
  return nic_clock_.cycles(cells * params_.per_cell_sar_cycles);
}

NicBoard::Handler* OsirisBoard::find_handler(MsgType type) {
  const std::size_t slot = std::size_t{type} - kTypeHandlerBase;  // wraps below the range
  if (slot >= handlers_.size() || handlers_[slot] == nullptr) return nullptr;
  return &handlers_[slot];
}

sim::SimChannel<atm::Frame>* OsirisBoard::find_channel(MsgType type) {
  sim::SimChannel<atm::Frame>** slot = channels_.find(type);
  return slot == nullptr ? nullptr : *slot;
}

std::uint64_t OsirisBoard::trace_fabric_arrival(sim::SimTime arrival, std::uint32_t origin,
                                                std::uint32_t seq, std::uint64_t fab) {
  if (obs_ == nullptr || !obs_->tracing()) return 0;
  const atm::FabBreakdown b = atm::FabBreakdown::unpack(fab);
  const sim::SimDuration wire = b.wire_ns * sim::kNanosecond;
  const sim::SimDuration contend = b.contend_ns * sim::kNanosecond;
  const sim::SimDuration credit = b.credit_ns * sim::kNanosecond;
  // Lay the categories out back to back ending at the arrival instant, in a
  // fixed order (wire, contention, credit), so the records are a pure
  // function of the packed breakdown — independent of drain interleaving.
  // The sum cannot exceed the arrival time (each category is a slice of the
  // route's actual delay), but clamp anyway: a wrapped start would poison
  // every downstream critical-path attribution.
  const sim::SimDuration span = wire + contend + credit;
  sim::SimTime t = arrival >= span ? arrival - span : 0;
  std::uint64_t prev = obs::causal_token(origin, seq, obs::Stage::kTx);
  const std::uint64_t wire_tok = obs::causal_token(origin, seq, obs::Stage::kFabWire);
  obs_->causal(t, t + wire, obs::Stage::kFabWire, wire_tok, prev);
  t += wire;
  prev = wire_tok;
  if (contend != 0) {
    const std::uint64_t tok = obs::causal_token(origin, seq, obs::Stage::kFabHop);
    obs_->causal(t, t + contend, obs::Stage::kFabHop, tok, prev);
    t += contend;
    prev = tok;
  }
  if (credit != 0) {
    const std::uint64_t tok = obs::causal_token(origin, seq, obs::Stage::kFabCredit);
    obs_->causal(t, t + credit, obs::Stage::kFabCredit, tok, prev);
    prev = tok;
  }
  return prev;
}

void OsirisBoard::run_handler(const Handler& h, atm::Frame frame, bool on_nic) {
  const sim::SimTime dispatch = engine_.now();
  RxContext ctx(*this, dispatch, on_nic);
  if (frame.trace != 0) {
    const MsgHeader hdr = frame.header<MsgHeader>();
    ctx.set_trace(obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kHandler));
    h(ctx, frame);
    CNI_TRACE_CAUSAL(obs_, dispatch, ctx.cursor(), obs::Stage::kHandler, ctx.trace(),
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kRx));
    return;
  }
  h(ctx, frame);
}

void OsirisBoard::deliver_to_channel(sim::SimTime t, atm::Frame frame) {
  const MsgHeader hdr = frame.header<MsgHeader>();
  sim::SimChannel<atm::Frame>* ch = find_channel(hdr.type);
  CNI_CHECK_MSG(ch != nullptr, "frame arrived for an unbound app message type");
  engine_.schedule_at(
      t, atm::FrameTask([ch](atm::Frame f) { ch->send(std::move(f)); }, std::move(frame)));
}

}  // namespace cni::nic
