#include "dsm/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <span>

#include "dsm/system.hpp"
#include "sim/inline_fn.hpp"
#include "util/check.hpp"
#include "util/units.hpp"
#include "util/log.hpp"

namespace cni::dsm {

namespace {

/// Reader over a frame's body (the bytes after the MsgHeader). Backed by the
/// frame's pooled payload, so bytes()/Diff::deserialize alias it by refcount.
ByteReader body_reader(const atm::Frame& f) {
  CNI_CHECK(f.payload.size() >= kMsgHeadroom);
  return ByteReader(f.payload, kMsgHeadroom);
}

std::uint64_t diff_words(const Diff& d) {
  std::uint64_t bytes = 0;
  for (const auto& r : d.runs) bytes += r.len;
  return util::ceil_div<std::uint64_t>(bytes, 8);
}

/// A kMsgHeadroom-fronted interval-set body: the `lead` words, `clock`, the
/// interval count and each record, written into one buffer sized up front.
util::Buf interval_set(std::initializer_list<std::uint32_t> lead, ClockView clock,
                       std::span<const Interval> ivs) {
  std::size_t bytes = kMsgHeadroom + 4 * lead.size() + 4 + clock.bytes().size() + 4;
  for (const Interval& iv : ivs) bytes += iv.wire.size();
  ByteWriter w(kMsgHeadroom, bytes);
  for (const std::uint32_t x : lead) w.u32(x);
  w.clock(clock);
  w.u32(static_cast<std::uint32_t>(ivs.size()));
  for (const Interval& iv : ivs) iv.serialize(w);
  return w.take();
}

/// Steps over `count` interval records (validating each) and returns their
/// write notices: a handler charges by them before the set is processed.
std::size_t count_notices(ByteReader& r, std::uint32_t count) {
  std::size_t notices = 0;
  for (std::uint32_t i = 0; i < count; ++i) notices += Interval::view(r).pages().size();
  return notices;
}

/// Runs `fn(frame)` at `at`, carrying the frame instead of anything decoded
/// from it: the event holds one payload reference and stays in InlineFn's
/// inline buffer.
template <class F>
void defer(sim::Engine& engine, sim::SimTime at, const atm::Frame& f, F fn) {
  atm::FrameTask task(fn, f);
  static_assert(sizeof(task) <= sim::InlineFn::kInlineBytes,
                "a deferred handler must fit the event's inline buffer");
  engine.schedule_at(at, std::move(task));
}

}  // namespace

DsmRuntime::DsmRuntime(DsmSystem& system, std::uint32_t self)
    : sys_(system),
      node_(system.cluster().node(self)),
      cpu_(node_.cpu()),
      page_shift_(system.geometry().shift()),
      page_mask_(system.geometry().size() - 1),
      self_(self),
      nprocs_(static_cast<std::uint32_t>(system.cluster().size())),
      vc_(nprocs_),
      store_(system.interval_log()),
      last_barrier_vc_(nprocs_) {
  obs_ = cpu_.obs();
  if (obs_ != nullptr) {
    fault_hist_ = obs_->metrics().histogram("dsm.fault_latency_ps");
  }
}

template <void (DsmRuntime::*Fn)(DsmRuntime::Ctx&, const atm::Frame&)>
nic::NicBoard::Handler DsmRuntime::bound_handler() {
  // The member function is a template argument, so the closure captures
  // only `this` and fits std::function's small buffer: no heap block per
  // handler. (Capturing the member pointer too takes 24 bytes, past it.)
  // cni-lint: allow(hot-path-alloc): handler registration at setup, never
  // on the per-message path.
  return nic::NicBoard::Handler(
      [this](Ctx& ctx, const atm::Frame& f) { (this->*Fn)(ctx, f); });
}

void DsmRuntime::install_handlers() {
  auto& board = node_.board();
  const std::uint64_t code = sys_.params().handler_code_bytes;
  board.install_handler(kDsmLockReq, bound_handler<&DsmRuntime::on_lock_req>(), code);
  board.install_handler(kDsmLockFwd, bound_handler<&DsmRuntime::on_lock_fwd>(), code);
  board.install_handler(kDsmLockGrant, bound_handler<&DsmRuntime::on_lock_grant>(), code);
  board.install_handler(kDsmLockRel, bound_handler<&DsmRuntime::on_lock_rel>(), code);
  board.install_handler(kDsmBarArrive, bound_handler<&DsmRuntime::on_bar_arrive>(), code);
  board.install_handler(kDsmBarRelease, bound_handler<&DsmRuntime::on_bar_release>(), code);
  board.install_handler(kDsmColUp, bound_handler<&DsmRuntime::on_col_up>(), code);
  board.install_handler(kDsmColDown, bound_handler<&DsmRuntime::on_col_down>(), code);
  board.install_handler(kDsmRedUp, bound_handler<&DsmRuntime::on_red_up>(), code);
  board.install_handler(kDsmRedDown, bound_handler<&DsmRuntime::on_red_down>(), code);
  board.install_handler(kDsmPageReq, bound_handler<&DsmRuntime::on_page_req>(), code);
  board.install_handler(kDsmPageReply, bound_handler<&DsmRuntime::on_page_reply>(), code);
  board.install_handler(kDsmDiffReq, bound_handler<&DsmRuntime::on_diff_req>(), code);
  board.install_handler(kDsmDiffReply, bound_handler<&DsmRuntime::on_diff_reply>(), code);
}

// ---------------------------------------------------------------------------
// Basic plumbing
// ---------------------------------------------------------------------------

PageEntry& DsmRuntime::meta(PageId p) {
  CNI_CHECK_MSG(p < sys_.page_count(), "access outside the allocated shared region");
  if (pages_.size() < sys_.page_count()) pages_.resize(sys_.page_count());
  return pages_[p];
}

PageEntry& DsmRuntime::entry(PageId p) {
  PageEntry& e = meta(p);
  if (e.data.empty()) e.data.resize(sys_.geometry().size());
  return e;
}

bool DsmRuntime::has_frame(PageId p) const {
  return p < pages_.size() && !pages_[p].data.empty();
}

PageMode DsmRuntime::page_mode(PageId p) const {
  if (p >= pages_.size()) return PageMode::kInvalid;
  return pages_[p].mode;
}

std::size_t DsmRuntime::pending_notices(PageId p) const {
  if (p >= pages_.size()) return 0;
  return pages_[p].pending.size();
}

mem::VAddr DsmRuntime::va_of_page(PageId p) const { return sys_.va_of_page(p); }

std::uint64_t DsmRuntime::page_words() const { return sys_.geometry().size() / 8; }

atm::Frame DsmRuntime::make_frame(std::uint32_t dst, nic::MsgType type,
                                  std::uint16_t flags, std::uint32_t aux,
                                  mem::VAddr buffer_va, util::Buf payload) {
  nic::MsgHeader h;
  h.type = type;
  h.flags = flags;
  h.src_node = self_;
  h.seq = node_.board().next_seq();
  h.aux = aux;
  h.buffer_va = buffer_va;
  // The body was serialized past kMsgHeadroom (ByteWriter{kMsgHeadroom});
  // patching the header in front completes the frame with zero copies.
  CNI_CHECK_MSG(payload.size() >= kMsgHeadroom, "payload built without headroom");
  std::memcpy(payload.data(), &h, sizeof h);
  return atm::Frame::adopt(self_, dst, /*vci=*/1, std::move(payload));
}

void DsmRuntime::send_request(std::uint32_t dst, nic::MsgType type, std::uint32_t aux,
                              util::Buf payload, std::uint64_t trace) {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM app call before bind_thread");
  cpu_.charge_overhead(*thread_, sys_.params().request_build_cycles);
  atm::Frame frame = make_frame(dst, type, 0, aux, 0, std::move(payload));
  frame.trace = trace;
  node_.board().send_from_host(*thread_, std::move(frame), nic::NicBoard::SendOptions{});
}

bool DsmRuntime::tracing() const { return obs_ != nullptr && obs_->tracing(); }

// ---------------------------------------------------------------------------
// Access fast path and faults
// ---------------------------------------------------------------------------

PageEntry& DsmRuntime::access_slow(PageId p, mem::VAddr page_va, bool write) {
  PageEntry& e = entry(p);  // checks the region before indexing
  if (write ? !e.writable() : !e.readable()) fault(p, write);
  e.pa_base = cpu_.page_table().translate(page_va);
  return e;
}

void DsmRuntime::fault(PageId p, bool write) {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM fault before bind_thread");
  cpu_.sync(*thread_);
  // Fault window: trap taken (local charge settled) -> page data usable.
  // Both endpoints are simulated instants, so the latency histogram is as
  // deterministic as the run itself.
  const sim::SimTime trap_at = node_.engine().now();
  auto& st = cpu_.stats();
  if (write) {
    ++st.write_faults;
  } else {
    ++st.read_faults;
  }
  cpu_.charge_overhead(*thread_, sys_.params().fault_trap_cycles);
  PageEntry& e = entry(p);
  if (!e.readable()) fetch_page_data(e, p);
  if (write && !e.writable()) write_upgrade(e, p);
  [[maybe_unused]] const sim::SimTime usable_at = node_.engine().now();
  CNI_OBS_HIST(fault_hist_, usable_at - trap_at);
  CNI_TRACE_SPAN(obs_, trap_at, usable_at, obs::Component::kDsm, obs::Event::kDsmFault,
                 p, write ? 1 : 0);
}

void DsmRuntime::write_upgrade(PageEntry& e, PageId p) {
  if (e.twin.empty()) {
    // The pre-write image diffs are computed against. A frame that still
    // holds only zeros shares the system's zero page; any other is copied
    // into a pooled block, which repeated twin/close cycles recycle. Either
    // way the simulated node pays for the copy.
    const util::Buf& zero = sys_.zero_page();
    if (std::memcmp(e.data.data(), zero.data(), e.data.size()) == 0) {
      e.twin = zero;
    } else {
      e.twin = util::Buf::alloc(e.data.size());
      std::memcpy(e.twin.data(), e.data.data(), e.data.size());
    }
    cpu_.charge_overhead(*thread_, page_words() * sys_.params().twin_word_cycles);
  }
  dirty_.push_back(p);
  e.mode = PageMode::kReadWrite;
}

void DsmRuntime::fetch_page_data(PageEntry& e, PageId p) {
  CNI_CHECK_MSG(!fetch_.active, "only one outstanding fetch per node");
  CNI_LOG_DEBUG("n%u fetch page=%llu pending=%zu", self_,
                static_cast<unsigned long long>(p), e.pending.size());
  auto& st = cpu_.stats();

  if (e.content_vc.size() == 0) e.content_vc = VectorClock(nprocs_);

  if (e.pending.empty() && (e.ever_valid || sys_.home_of(p) == self_)) {
    // Nothing outstanding: revalidate in place.
    e.ever_valid = true;
    e.mode = PageMode::kReadOnly;
    return;
  }

  // e.pending holds the newest notice per writer, in writer order (retained
  // diffs are per-interval, so the newest notice identifies everything we
  // may need from a writer). It cannot change while the fetch waits: notices
  // arrive only in lock grants and barrier releases, and a faulting thread
  // awaits neither.
  fetch_ = Fetch{};
  fetch_.active = true;
  fetch_.req_id = next_req_id_++;
  fetch_.page = p;
  fetch_.base_from = nprocs_;  // sentinel: no base

  // Root of this remote fault's causal tree: every request frame the fetch
  // sends carries it as cross-frame parent, so the round trip (request ->
  // server handler -> reply -> page arrival) reconstructs as one tree.
  [[maybe_unused]] const sim::SimTime fetch_start = node_.engine().now();
  const std::uint64_t fault_tok =
      tracing() ? obs::causal_token(self_, fetch_.req_id, obs::Stage::kFault) : 0;

  // Phase 1 — a never-valid page needs a coherent base copy. Its source is
  // a *maximal* pending writer (any would be correct: the reply carries the
  // copy's per-writer content clock, and phase 2 fills whatever it lacks),
  // or the page's home when nobody ever wrote it.
  if (!e.ever_valid) {
    std::uint32_t from = sys_.home_of(p);
    const Notice* base = nullptr;
    for (const Notice& n : e.pending) {
      const ClockView vc = store_.at(n.writer, n.index).vc();
      bool dominated = false;
      for (const Notice& n2 : e.pending) {
        if (n2.writer != n.writer && vc.dominated_by(store_.at(n2.writer, n2.index).vc())) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      if (base == nullptr || n.index > base->index ||
          (n.index == base->index && n.writer < base->writer)) {
        base = &n;
      }
    }
    if (base != nullptr) from = base->writer;
    fetch_.want_base = true;
    fetch_.base_from = from;
    ++st.pages_fetched;
    ByteWriter w(kMsgHeadroom);
    w.u64(p);
    w.u32(self_);
    send_request(from, kDsmPageReq, fetch_.req_id, w.take(), fault_tok);
    wq_.wait(*thread_, [this] { return fetch_.complete; });
    cpu_.charge_overhead(*thread_, node_.board().wakeup_cost_cycles());
    fetch_.complete = false;
  }

  // The per-writer floor below which data is already in hand: the base
  // copy's shipped content clock, or our own copy's. Both are causally
  // closed (receiving a notice implies having its causal predecessors'
  // notices, and every fetch satisfies all pending notices), which is what
  // makes "apply base, then only diffs above the floor" reconstruct a
  // consistent page.
  fetch_.floor = fetch_.want_base ? fetch_.base_vc : e.content_vc;
  if (fetch_.floor.size() == 0) fetch_.floor = VectorClock(nprocs_);

  // Phase 2 — per-interval diffs from every pending writer the floor does
  // not cover. The base node's own writes are always in its copy.
  for (const Notice& n : e.pending) {
    if (n.writer == fetch_.base_from) continue;
    if (n.index <= fetch_.floor[n.writer]) continue;
    ++fetch_.diffs_wanted;
    ByteWriter wr(kMsgHeadroom);
    wr.u64(p);
    wr.u32(self_);
    // Ask for exactly the interval window (floor, target]. Shipping
    // anything newer than the notice we hold would break the content
    // clock's causal closure: a diff from an interval we have no notice
    // for may depend on other writers' intervals we also lack, and a later
    // fetch of those would replay older bytes over it.
    wr.u32(n.index);
    wr.clock(fetch_.floor);
    send_request(n.writer, kDsmDiffReq, fetch_.req_id, wr.take(), fault_tok);
  }
  if (fetch_.diffs_wanted != 0) {
    wq_.wait(*thread_, [this] { return fetch_.complete; });
    cpu_.charge_overhead(*thread_, node_.board().wakeup_cost_cycles());
  }

  apply_fetch_results(e);
  if (fault_tok != 0) {
    CNI_TRACE_CAUSAL(obs_, fetch_start, node_.engine().now(), obs::Stage::kFault,
                     fault_tok, 0);
  }
  CNI_LOG_DEBUG("n%u fetch complete", self_);
}

void DsmRuntime::apply_fetch_results(PageEntry& e) {
  auto& st = cpu_.stats();

  if (fetch_.base_done) {
    // One copy, from the received frame's buffer straight into the page
    // frame — the payload was never duplicated on the way here.
    CNI_CHECK(fetch_.base.size() == e.data.size());
    std::memcpy(e.data.data(), fetch_.base.data(), e.data.size());
    // The shipped content clock is per-writer precise and causally closed.
    if (fetch_.base_vc.size() != 0) e.content_vc.merge(fetch_.base_vc);
  }

  // Drop shipped diffs already folded in (writers over-ship only when the
  // floor is conservative). Re-applying an old diff would revert bytes a
  // newer chain already wrote.
  std::vector<Diff> diffs;
  diffs.reserve(fetch_.diffs.size());
  for (Diff& d : fetch_.diffs) {
    if (d.vc[d.writer] <= fetch_.floor[d.writer]) continue;
    diffs.push_back(std::move(d));
  }

  // Every diff carries the clock of the single interval it covers, so
  // sort_for_apply replays chained writes to the same bytes oldest first. (A
  // foreign diff never carries a stale image of *our* bytes: diffs hold only
  // the bytes their writer itself wrote.)
  sort_for_apply(diffs);
  for (const Diff& d : diffs) {
    apply_diff(d, e.data);
    if (e.content_vc[d.writer] < d.vc[d.writer]) {
      e.content_vc.set(d.writer, d.vc[d.writer]);
    }
  }
  st.diffs_applied += diffs.size();

  // Satisfied notices fold into the content clock (per-writer components):
  // each pending writer's history up to its notice was shipped or already
  // present, even when a diff turned out empty (identical bytes stored).
  for (const Notice& n : e.pending) {
    if (e.content_vc[n.writer] < n.index) e.content_vc.set(n.writer, n.index);
  }
  e.pending.clear();
  e.ever_valid = true;
  e.mode = PageMode::kReadOnly;
  fetch_ = Fetch{};
}

// ---------------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------------

void DsmRuntime::snapshot_own_diff(PageEntry& e, ClockView tag) {
  if (e.twin.empty()) return;
  Diff own = make_diff(self_, tag, e.twin, e.data);
  e.twin.reset();  // the block returns to the pool for the next twin
  if (own.runs.empty()) return;
  // Shadow subtraction keeps every byte in exactly one retained diff — the
  // newest that wrote it. Soundness: a requester could only need the *old*
  // image of a byte we later rewrote if its read happened-before our
  // rewrite; but then the synchronisation chain ordering the two (the same
  // lock, or an intervening barrier) means our rewriting interval cannot
  // yet be closed when we serve the request, so the old image is still the
  // byte's newest *closed* value. (Naively *merging* old diffs into new
  // ones is NOT safe: it re-tags old bytes with a new clock and replays
  // them over other writers' concurrent updates.) This also bounds retained
  // storage at one page image per page.
  for (Diff& older : e.retained) subtract_shadowed(older, own);
  std::erase_if(e.retained, [](const Diff& d) { return d.runs.empty(); });
  e.retained.push_back(std::move(own));
}

void DsmRuntime::subtract_shadowed(Diff& older, const Diff& newer) {
  // Runs are views into the diff's shared arena, so splitting one is pure
  // index arithmetic — the remainders keep pointing at the same bytes.
  for (const Diff::Run& n : newer.runs) {
    const std::uint64_t ns = n.offset;
    const std::uint64_t ne = n.offset + n.len;
    std::vector<Diff::Run> kept;
    kept.reserve(older.runs.size());
    for (const Diff::Run& o : older.runs) {
      const std::uint64_t os = o.offset;
      const std::uint64_t oe = o.offset + o.len;
      if (oe <= ns || os >= ne) {
        kept.push_back(o);
        continue;
      }
      if (os < ns) {  // left remainder survives
        kept.push_back(Diff::Run{o.offset, o.arena_off,
                                 static_cast<std::uint32_t>(ns - os)});
      }
      if (oe > ne) {  // right remainder survives
        kept.push_back(Diff::Run{static_cast<std::uint32_t>(ne),
                                 o.arena_off + static_cast<std::uint32_t>(ne - os),
                                 static_cast<std::uint32_t>(oe - ne)});
      }
    }
    older.runs = std::move(kept);
  }
}

void DsmRuntime::close_interval() {
  if (dirty_.empty()) return;
  cpu_.charge_overhead(*thread_, sys_.params().release_local_cycles);
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  vc_.advance(self_);
  const std::uint32_t index = vc_[self_];
  // Snapshot this interval's modifications per page (tagged with exactly
  // this interval's clock — that is what makes remote merge ordering
  // correct), and write-protect the pages again so the next interval's
  // writes fault and generate fresh notices. Diff creation *cost* is
  // charged lazily at request time, like the paper's lazy protocol.
  for (PageId p : dirty_) {
    PageEntry& e = entry(p);
    snapshot_own_diff(e, vc_);
    if (e.content_vc.size() == 0) e.content_vc = VectorClock(nprocs_);
    e.content_vc.set(self_, index);  // own data always holds own writes
    if (e.mode == PageMode::kReadWrite) e.mode = PageMode::kReadOnly;
  }
  store_.insert(Interval::encode(self_, index, vc_, dirty_));
  dirty_.clear();
}

void DsmRuntime::process_incoming_interval(const Interval& iv) {
  if (iv.writer == self_ || !store_.insert(iv)) return;  // own, or already seen
  if (vc_[iv.writer] < iv.index) vc_.set(iv.writer, iv.index);

  const WireArray<PageId> pages = iv.pages();
  cpu_.stats().write_notices_received += pages.size();
  for (PageId p : pages) {
    // A notice is bookkeeping only: a page this node never touched gets no
    // frame here, only at its first access. (A valid page already has one.)
    PageEntry& e = meta(p);
    e.add_notice(Notice{iv.writer, iv.index});
    if (e.mode != PageMode::kInvalid) {
      if (!e.twin.empty()) {
        // We are a concurrent writer of this page: preserve our open mods
        // before dropping write access. They belong to our *next* interval
        // (the page stays in dirty_, so the next close announces them);
        // tag the diff with that upcoming interval's clock.
        VectorClock tag = vc_;
        tag.advance(self_);
        snapshot_own_diff(e, tag);
      }
      e.mode = PageMode::kInvalid;
    }
  }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void DsmRuntime::acquire(std::uint32_t lock) {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM app call before bind_thread");
  CNI_LOG_DEBUG("n%u acquire(%u)", self_, lock);
  cpu_.sync(*thread_);
  ++cpu_.stats().lock_acquires;
  lock_granted_ = false;
  ByteWriter w(kMsgHeadroom);
  w.u32(lock);
  w.u32(self_);
  w.clock(vc_);
  send_request(sys_.lock_home(lock), kDsmLockReq, lock, w.take());
  wq_.wait(*thread_, [this] { return lock_granted_; });
  cpu_.charge_overhead(*thread_, node_.board().wakeup_cost_cycles());
}

void DsmRuntime::release(std::uint32_t lock) {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM app call before bind_thread");
  CNI_LOG_DEBUG("n%u release(%u)", self_, lock);
  cpu_.sync(*thread_);
  close_interval();
  ByteWriter w(kMsgHeadroom);
  w.u32(lock);
  w.u32(self_);
  send_request(sys_.lock_home(lock), kDsmLockRel, lock, w.take());
}

void DsmRuntime::on_lock_req(Ctx& ctx, const atm::Frame& f) {
  ctx.charge(sys_.params().handler_base_cycles);
  ByteReader r = body_reader(f);
  const std::uint32_t lock = r.u32();
  const std::uint32_t requester = r.u32();
  VectorClock rvc = r.clock();

  LockHome& L = lock_homes_[lock];
  CNI_LOG_DEBUG("n%u lock_req lock=%u from=%u held=%d", self_, lock, requester,
                static_cast<int>(L.held));
  if (L.held) {
    L.waiters.emplace_back(requester, std::move(rvc));
    return;
  }
  L.held = true;
  L.holder = requester;
  if (!L.has_releaser || L.last_releaser == requester) {
    // First acquire ever, or re-acquire by the very node that released last:
    // nothing new to propagate, grant straight from the home.
    ByteWriter w(kMsgHeadroom);
    w.clock(rvc);
    w.u32(0);
    ctx.send(make_frame(requester, kDsmLockGrant, 0, lock, 0, w.take()),
             nic::NicBoard::SendOptions{});
    return;
  }
  // Forward to the last releaser, which grants directly to the requester
  // with the intervals the requester has not seen.
  ByteWriter w(kMsgHeadroom);
  w.u32(lock);
  w.u32(requester);
  w.clock(rvc);
  ctx.send(make_frame(L.last_releaser, kDsmLockFwd, 0, lock, 0, w.take()),
           nic::NicBoard::SendOptions{});
}

void DsmRuntime::on_lock_fwd(Ctx& ctx, const atm::Frame& f) {
  ByteReader r = body_reader(f);
  const std::uint32_t lock = r.u32();
  const std::uint32_t requester = r.u32();
  // The grant: our clock plus every interval the requester has not seen.
  const std::vector<Interval> unseen = store_.unseen_by(r.clock_view());
  ctx.charge(sys_.params().handler_base_cycles +
             unseen.size() * sys_.params().handler_per_interval_cycles);
  ctx.send(
      make_frame(requester, kDsmLockGrant, 0, lock, 0, interval_set({}, vc_, unseen)),
      nic::NicBoard::SendOptions{});
}

void DsmRuntime::on_lock_grant(Ctx& ctx, const atm::Frame& f) {
  ByteReader r = body_reader(f);
  (void)r.clock_view();
  const std::uint32_t count = r.u32();
  const std::size_t notices = count_notices(r, count);
  ctx.charge(sys_.params().handler_base_cycles +
             count * sys_.params().handler_per_interval_cycles +
             notices * sys_.params().handler_per_notice_cycles);
  CNI_LOG_DEBUG("n%u lock_grant arrives ivs=%u", self_, count);
  defer(node_.engine(), ctx.cursor(), f, [this](const atm::Frame& grant) {
    ByteReader g = body_reader(grant);
    const ClockView releaser_vc = g.clock_view();
    const std::uint32_t n = g.u32();
    for (std::uint32_t i = 0; i < n; ++i) process_incoming_interval(Interval::view(g));
    vc_.merge(releaser_vc);
    lock_granted_ = true;
    wq_.notify_all();
  });
}

void DsmRuntime::on_lock_rel(Ctx& ctx, const atm::Frame& f) {
  ctx.charge(sys_.params().handler_base_cycles);
  ByteReader r = body_reader(f);
  const std::uint32_t lock = r.u32();
  const std::uint32_t releaser = r.u32();

  LockHome& L = lock_homes_[lock];
  CNI_LOG_DEBUG("n%u lock_rel lock=%u from=%u waiters=%zu", self_, lock, releaser, L.waiters.size());
  CNI_CHECK_MSG(L.held && L.holder == releaser, "release from a non-holder");
  L.has_releaser = true;
  L.last_releaser = releaser;
  if (L.waiters.empty()) {
    L.held = false;
    return;
  }
  auto [next, nvc] = std::move(L.waiters.front());
  L.waiters.pop_front();
  L.holder = next;
  ByteWriter w(kMsgHeadroom);
  w.u32(lock);
  w.u32(next);
  w.clock(nvc);
  ctx.send(make_frame(releaser, kDsmLockFwd, 0, lock, 0, w.take()),
           nic::NicBoard::SendOptions{});
}

// ---------------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------------

void DsmRuntime::barrier() {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM app call before bind_thread");
  cpu_.sync(*thread_);
  ++cpu_.stats().barriers;
  close_interval();
  barrier_released_ = false;

  // Tree up-sweep contribution: this node's clock (the subtree-min seed)
  // plus everything new since the last barrier. It enters the combining
  // tree at our own board — the kDsmColUp handler at self is the leaf's
  // combine step, and on a CNI never touches the host again until release.
  const bool nic = sys_.collective() == cluster::CollectiveMode::kNic;
  util::Buf body;
  {  // the unseen list is freed here, not held through the barrier wait
    const std::vector<Interval> unseen = store_.unseen_by(last_barrier_vc_);
    body = nic ? interval_set({}, vc_, unseen) : interval_set({self_}, vc_, unseen);
    cpu_.charge_overhead(
        *thread_, unseen.size() * sys_.params().handler_per_interval_cycles);
  }
  // Root of this barrier episode's causal tree (seq: the node's barrier
  // count); the arrive frame carries it, so manager fan-in/fan-out chains
  // under it, and the span itself measures this node's barrier wait.
  [[maybe_unused]] const sim::SimTime bar_start = node_.engine().now();
  const auto episode = static_cast<std::uint32_t>(cpu_.stats().barriers);
  const std::uint64_t bar_tok =
      tracing() ? obs::causal_token(self_, episode, obs::Stage::kBarrier) : 0;
  if (nic) {
    send_request(self_, kDsmColUp, episode, std::move(body), bar_tok);
  } else {
    send_request(sys_.barrier_manager(), kDsmBarArrive, 0, std::move(body), bar_tok);
  }

  wq_.wait(*thread_, [this] { return barrier_released_; });
  cpu_.charge_overhead(*thread_, node_.board().wakeup_cost_cycles());
  if (bar_tok != 0) {
    CNI_TRACE_CAUSAL(obs_, bar_start, node_.engine().now(), obs::Stage::kBarrier,
                     bar_tok, 0);
  }
}

void DsmRuntime::on_bar_arrive(Ctx& ctx, const atm::Frame& f) {
  CNI_CHECK_MSG(self_ == sys_.barrier_manager(), "barrier arrive at a non-manager");
  ByteReader r = body_reader(f);
  const std::uint32_t node = r.u32();
  const ClockView nvc = r.clock_view();
  const std::uint32_t count = r.u32();
  ctx.charge(sys_.params().handler_base_cycles +
             count * sys_.params().handler_per_interval_cycles);

  if (!barrier_mgr_) {
    // cni-lint: allow(hot-path-alloc): the centralized manager state is
    // allocated once, on the manager node's first arrive — the other N-1
    // runtimes never carry it, and no later message allocates again.
    barrier_mgr_ = std::make_unique<BarrierManager>(sys_.interval_log());
  }
  BarrierManager& M = *barrier_mgr_;
  if (M.node_vcs.empty()) M.node_vcs.assign(nprocs_, VectorClock(nprocs_));
  // The manager's interval pool is separate from the node's own protocol
  // store: inserting here must not suppress the invalidation processing the
  // manager node itself performs when its release message arrives.
  for (std::uint32_t i = 0; i < count; ++i) M.store.insert(Interval::view(r));
  M.node_vcs[node].assign(nvc);
  ++M.arrived;
  if (M.arrived < nprocs_) return;

  M.arrived = 0;
  ++M.epoch;
  VectorClock global(nprocs_);
  for (const VectorClock& v : M.node_vcs) global.merge(v);
  for (std::uint32_t n = 0; n < nprocs_; ++n) {
    const std::vector<Interval> unseen = M.store.unseen_by(M.node_vcs[n]);
    ctx.charge(sys_.params().handler_base_cycles / 2 +
               unseen.size() * sys_.params().handler_per_interval_cycles);
    ctx.send(
        make_frame(n, kDsmBarRelease, 0, M.epoch, 0, interval_set({}, global, unseen)),
        nic::NicBoard::SendOptions{});
  }
}

void DsmRuntime::on_bar_release(Ctx& ctx, const atm::Frame& f) {
  ByteReader r = body_reader(f);
  (void)r.clock_view();
  const std::uint32_t count = r.u32();
  const std::size_t notices = count_notices(r, count);
  ctx.charge(sys_.params().handler_base_cycles +
             count * sys_.params().handler_per_interval_cycles +
             notices * sys_.params().handler_per_notice_cycles);
  defer(node_.engine(), ctx.cursor(), f, [this](const atm::Frame& release) {
    ByteReader g = body_reader(release);
    const ClockView global = g.clock_view();
    const std::uint32_t n = g.u32();
    for (std::uint32_t i = 0; i < n; ++i) process_incoming_interval(Interval::view(g));
    vc_.merge(global);
    last_barrier_vc_.assign(global);
    barrier_released_ = true;
    wq_.notify_all();
  });
}

/// A barrier release as an engine event. A std::vector and a VectorClock
/// (a pointer and a size) both stay valid when their bytes are copied
/// elsewhere, so the event opts into InlineFn's memcpy relocation and stays
/// in its inline buffer.
struct DsmRuntime::BarrierRelease {
  static constexpr bool kTriviallyRelocatable = true;

  DsmRuntime* rt;
  std::vector<Interval> ivs;
  VectorClock global;

  void operator()() {
    for (const Interval& iv : ivs) rt->process_incoming_interval(iv);
    rt->vc_.merge(global);
    rt->last_barrier_vc_ = std::move(global);
    rt->barrier_released_ = true;
    rt->wq_.notify_all();
  }
};

void DsmRuntime::schedule_barrier_release(sim::SimTime at, std::vector<Interval> ivs,
                                          VectorClock global) {
  BarrierRelease release{this, std::move(ivs), std::move(global)};
  static_assert(sizeof(release) <= sim::InlineFn::kInlineBytes,
                "a barrier release must fit the event's inline buffer");
  node_.engine().schedule_at(at, std::move(release));
}

// ---------------------------------------------------------------------------
// NIC-tree collectives (DESIGN.md §16)
//
// Barrier up-sweep: every node's board sends (clock, new intervals) into the
// combining tree; each tree node's kDsmColUp handler folds arrivals (its own
// plus one per child) and forwards one combined frame to its parent. The
// root turns the fold into the global clock and fans the release back down,
// each hop forwarding only what the receiving subtree has not seen (filtered
// by the element-wise-min clock its up-sweep reported). On a CNI all of this
// runs on the 33 MHz network processor; the host sleeps until its own
// release is scheduled. On the standard NIC the same handlers run host-side
// after an interrupt — the A/B the fig_barrier_scaling bench measures.
// ---------------------------------------------------------------------------

void DsmRuntime::sort_unique_intervals(std::vector<Interval>& ivs) {
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    return a.writer != b.writer ? a.writer < b.writer : a.index < b.index;
  });
  ivs.erase(std::unique(ivs.begin(), ivs.end(),
                        [](const Interval& a, const Interval& b) {
                          return a.writer == b.writer && a.index == b.index;
                        }),
            ivs.end());
}

void DsmRuntime::on_col_up(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  VectorClock sub = r.clock();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) col_.ivs.push_back(Interval::deserialize(r));
  ctx.charge(sys_.params().handler_base_cycles +
             count * sys_.params().handler_per_interval_cycles);
  CNI_CHECK_MSG(hdr.aux == col_.epoch + 1, "collective barrier epoch mismatch");

  const atm::CollectiveTree& tree = sys_.collective_tree();
  if (col_.min.size() == 0) {
    col_.min = sub;
  } else {
    col_.min.min_in_place(sub);
  }
  if (hdr.src_node != self_) col_.child_min.emplace_back(hdr.src_node, std::move(sub));
  ++col_.arrived;
  if (col_.arrived < 1 + tree.children[self_].size()) return;

  // All contributions in: canonicalize the fold. Sorting makes the merged
  // set, and so its serialized bytes, independent of the arrival order.
  sort_unique_intervals(col_.ivs);
  std::sort(col_.child_min.begin(), col_.child_min.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (f.trace != 0) {
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kColCombine,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kColCombine),
                     ctx.trace());
  }

  if (tree.parent[self_] != self_) {
    // Interior/leaf: one combined frame continues up; the subtree state
    // stays parked until the matching down-sweep arrives.
    ctx.charge(sys_.params().handler_base_cycles / 2 +
               col_.ivs.size() * sys_.params().handler_per_interval_cycles);
    ctx.send(make_frame(tree.parent[self_], kDsmColUp, 0, col_.epoch + 1, 0,
                        interval_set({}, col_.min, col_.ivs)),
             nic::NicBoard::SendOptions{});
    return;
  }

  // Root: the fold holds every interval of the episode, so the global clock
  // is the last barrier floor advanced by each writer's newest index —
  // exactly the element-wise max of all node clocks the centralized manager
  // computes.
  VectorClock global = last_barrier_vc_;
  for (const Interval& iv : col_.ivs) {
    if (global[iv.writer] < iv.index) global.set(iv.writer, iv.index);
  }
  col_down_fanout(ctx, global);
  schedule_barrier_release(ctx.cursor(), std::move(col_.ivs), std::move(global));
  col_.arrived = 0;
  col_.min = VectorClock();
  col_.child_min.clear();
  col_.ivs.clear();
  ++col_.epoch;
}

void DsmRuntime::col_down_fanout(Ctx& ctx, const VectorClock& global) {
  // Per child: forward only what that subtree lacks. The child's reported
  // min clock under-approximates each member's knowledge, so the filter
  // over-ships at worst; process_incoming_interval drops duplicates, and
  // density per writer is preserved (the filtered set is dense above the
  // child floor, every member's store is dense up to at least that floor).
  for (const auto& [child, cmin] : col_.child_min) {
    std::vector<Interval> out;
    out.reserve(col_.ivs.size());
    for (const Interval& iv : col_.ivs) {
      if (iv.index > cmin[iv.writer]) out.push_back(iv);
    }
    ctx.charge(sys_.params().handler_base_cycles / 2 +
               out.size() * sys_.params().handler_per_interval_cycles);
    ctx.send(make_frame(child, kDsmColDown, 0, col_.epoch + 1, 0,
                        interval_set({}, global, out)),
             nic::NicBoard::SendOptions{});
  }
}

void DsmRuntime::on_col_down(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  VectorClock global = r.clock();
  const std::uint32_t count = r.u32();
  std::size_t notices = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    col_.ivs.push_back(Interval::deserialize(r));
    notices += col_.ivs.back().pages().size();
  }
  ctx.charge(sys_.params().handler_base_cycles +
             count * sys_.params().handler_per_interval_cycles +
             notices * sys_.params().handler_per_notice_cycles);
  CNI_CHECK_MSG(hdr.aux == col_.epoch + 1, "collective barrier epoch mismatch");
  if (f.trace != 0) {
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kColDown,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kColDown),
                     ctx.trace());
  }

  // The full episode set visible here = our parked subtree fold plus what
  // the parent forwarded for us (appended above); dedup (a parent over-ship
  // may repeat ours) and continue the fan-out, then release ourselves.
  sort_unique_intervals(col_.ivs);
  col_down_fanout(ctx, global);
  schedule_barrier_release(ctx.cursor(), std::move(col_.ivs), std::move(global));
  col_.arrived = 0;
  col_.min = VectorClock();
  col_.child_min.clear();
  col_.ivs.clear();
  ++col_.epoch;
}

std::uint64_t DsmRuntime::reduce(ReduceOp op, std::uint64_t value) {
  CNI_CHECK_MSG(thread_ != nullptr, "DSM app call before bind_thread");
  cpu_.sync(*thread_);
  red_released_ = false;
  const std::uint32_t episode = ++red_calls_;
  [[maybe_unused]] const sim::SimTime start = node_.engine().now();
  const std::uint64_t tok =
      tracing() ? obs::causal_token(self_, episode, obs::Stage::kBarrier) : 0;
  ByteWriter w(kMsgHeadroom);
  w.u32(static_cast<std::uint32_t>(op));
  w.u64(value);
  send_request(self_, kDsmRedUp, episode, w.take(), tok);
  wq_.wait(*thread_, [this] { return red_released_; });
  cpu_.charge_overhead(*thread_, node_.board().wakeup_cost_cycles());
  if (tok != 0) {
    CNI_TRACE_CAUSAL(obs_, start, node_.engine().now(), obs::Stage::kBarrier, tok, 0);
  }
  return red_result_;
}

void DsmRuntime::on_red_up(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const auto op = static_cast<ReduceOp>(r.u32());
  const std::uint64_t v = r.u64();
  ctx.charge(sys_.params().handler_base_cycles);
  CNI_CHECK_MSG(hdr.aux == red_.epoch + 1, "collective reduce epoch mismatch");

  // Fold. Every op is commutative and associative, so arrival order cannot
  // change the result.
  if (!red_.have) {
    red_.value = v;
    red_.have = true;
  } else if (op == ReduceOp::kSum) {
    red_.value += v;
  } else if (op == ReduceOp::kMin) {
    red_.value = std::min(red_.value, v);
  } else {
    red_.value = std::max(red_.value, v);
  }
  ++red_.arrived;
  const atm::CollectiveTree& tree = sys_.collective_tree();
  if (red_.arrived < 1 + tree.children[self_].size()) return;

  if (f.trace != 0) {
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kColCombine,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kColCombine),
                     ctx.trace());
  }
  if (tree.parent[self_] != self_) {
    ByteWriter w(kMsgHeadroom);
    w.u32(static_cast<std::uint32_t>(op));
    w.u64(red_.value);
    ctx.charge(sys_.params().handler_base_cycles / 2);
    ctx.send(make_frame(tree.parent[self_], kDsmRedUp, 0, red_.epoch + 1, 0, w.take()),
             nic::NicBoard::SendOptions{});
    return;
  }
  red_down_deliver(ctx, red_.value);
}

void DsmRuntime::on_red_down(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const std::uint64_t v = r.u64();
  ctx.charge(sys_.params().handler_base_cycles);
  CNI_CHECK_MSG(hdr.aux == red_.epoch + 1, "collective reduce epoch mismatch");
  if (f.trace != 0) {
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kColDown,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kColDown),
                     ctx.trace());
  }
  red_down_deliver(ctx, v);
}

void DsmRuntime::red_down_deliver(Ctx& ctx, std::uint64_t value) {
  const atm::CollectiveTree& tree = sys_.collective_tree();
  for (const std::uint32_t child : tree.children[self_]) {
    ByteWriter w(kMsgHeadroom);
    w.u64(value);
    ctx.charge(sys_.params().handler_base_cycles / 2);
    ctx.send(make_frame(child, kDsmRedDown, 0, red_.epoch + 1, 0, w.take()),
             nic::NicBoard::SendOptions{});
  }
  node_.engine().schedule_at(ctx.cursor(), [this, value] {
    red_result_ = value;
    red_released_ = true;
    wq_.notify_all();
  });
  red_.arrived = 0;
  red_.have = false;
  red_.value = 0;
  ++red_.epoch;
}

// ---------------------------------------------------------------------------
// Page and diff traffic
// ---------------------------------------------------------------------------

void DsmRuntime::on_page_req(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const PageId page = r.u64();
  const std::uint32_t requester = r.u32();
  ctx.charge(sys_.params().handler_base_cycles);

  PageEntry& e = entry(page);
  if (e.content_vc.size() == 0) e.content_vc = VectorClock(nprocs_);
  // Page replies dominate payload volume; size the buffer once up front.
  ByteWriter w(kMsgHeadroom,
               kMsgHeadroom + 8 + 4 + 4 * (e.content_vc.size() + 1) + 4 + e.data.size());
  w.u64(page);
  w.clock(e.content_vc);  // what this copy is known to contain, per writer
  w.bytes(e.data);
  // The reply carries the cache bit: on a CNI the requester's board binds
  // the page into its Message Cache on the way in (receive caching), and our
  // own board served the payload from its cached buffer if it was bound
  // (transmit caching).
  ctx.send(make_frame(requester, kDsmPageReply, nic::kFlagCacheable, hdr.aux,
                      va_of_page(page), w.take()),
           nic::NicBoard::SendOptions{va_of_page(page), sys_.geometry().size(),
                                      /*cacheable=*/true});
}

void DsmRuntime::on_page_reply(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const PageId page = r.u64();
  (void)r.clock_view();
  const std::span<const std::byte> data = r.bytes();
  CNI_CHECK_MSG(fetch_.active && fetch_.req_id == hdr.aux && fetch_.page == page,
                "page reply does not match the outstanding fetch");
  ctx.charge(sys_.params().handler_base_cycles);
  ctx.transfer_to_host(va_of_page(page), data.size());
  CNI_TRACE_INSTANT(obs_, ctx.cursor(), obs::Component::kDsm,
                    obs::Event::kDsmPageArrival, page, data.size());
  if (f.trace != 0) {
    // Leaf of the remote-fault tree: the page's bytes are in host memory.
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kDeliver,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kDeliver),
                     ctx.trace());
  }
  defer(node_.engine(), ctx.cursor(), f, [this](const atm::Frame& reply) {
    ByteReader g = body_reader(reply);
    (void)g.u64();
    fetch_.base_vc.assign(g.clock_view());
    // Zero-copy: `base` views the received frame's payload, and `base_keep`
    // pins that pooled buffer by refcount until apply_fetch_results consumes it.
    fetch_.base = g.bytes();
    fetch_.base_keep = g.backing();
    fetch_.base_done = true;
    if (fetch_.diffs_got == fetch_.diffs_wanted) {
      fetch_.complete = true;
      wq_.notify_all();
    }
  });
}

void DsmRuntime::on_diff_req(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const PageId page = r.u64();
  const std::uint32_t requester = r.u32();
  const std::uint32_t target = r.u32();
  const ClockView floor = r.clock_view();

  // Ship exactly the per-interval diffs in (floor, target]: what the
  // requester's notices cover and its copy lacks. Open (un-noticed)
  // modifications and intervals beyond the target stay local. Only the
  // retained diffs are read, never the frame.
  const PageEntry& e = meta(page);
  std::vector<const Diff*> ds;
  ds.reserve(e.retained.size());
  for (const Diff& d : e.retained) {
    // Our retained diffs are all our own; the requester's floor carries a
    // precise component for us (its cross components are conservative).
    if (d.vc[self_] <= floor[self_] || d.vc[self_] > target) continue;
    ds.push_back(&d);
  }
  cpu_.stats().diffs_created += ds.size();
  std::uint64_t words = 0;
  for (const Diff* d : ds) words += diff_words(*d);
  ctx.charge(sys_.params().handler_base_cycles +
             words * sys_.params().diff_word_cycles);

  ByteWriter w(kMsgHeadroom);
  w.u64(page);
  w.u32(static_cast<std::uint32_t>(ds.size()));
  for (const Diff* d : ds) d->serialize(w);  // in place, never copied
  // The diff's *source* is the page buffer: a CNI builds the reply from the
  // Message Cache copy when the page is bound (no host DMA). On a miss only
  // the needed bytes cross the bus and the page is NOT bound (binding is
  // what page transfers and receive caching do); the header likewise does
  // not carry the cache bit, so the receiver never binds a diff image.
  nic::NicBoard::SendOptions opts;
  opts.source_va = va_of_page(page);
  opts.source_len = sys_.geometry().size();
  opts.cacheable = false;
  ctx.send(make_frame(requester, kDsmDiffReply, 0, hdr.aux, 0, w.take()), opts);
}

void DsmRuntime::on_diff_reply(Ctx& ctx, const atm::Frame& f) {
  const nic::MsgHeader hdr = f.header<nic::MsgHeader>();
  ByteReader r = body_reader(f);
  const PageId page = r.u64();
  const std::uint32_t count = r.u32();
  std::uint64_t words = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    words += util::ceil_div<std::uint64_t>(Diff::skip(r), 8);
  }
  CNI_CHECK_MSG(fetch_.active && fetch_.req_id == hdr.aux && fetch_.page == page,
                "diff reply does not match the outstanding fetch");
  ctx.charge(sys_.params().handler_base_cycles +
             words * sys_.params().diff_word_cycles);
  ctx.transfer_to_host(va_of_page(page), std::max<std::uint64_t>(words * 8, 8));
  if (f.trace != 0) {
    CNI_TRACE_CAUSAL(obs_, ctx.cursor(), ctx.cursor(), obs::Stage::kDeliver,
                     obs::causal_token(hdr.src_node, hdr.seq, obs::Stage::kDeliver),
                     ctx.trace());
  }
  defer(node_.engine(), ctx.cursor(), f, [this](const atm::Frame& reply) {
    ByteReader g = body_reader(reply);
    (void)g.u64();
    const std::uint32_t n = g.u32();
    for (std::uint32_t i = 0; i < n; ++i) fetch_.diffs.push_back(Diff::deserialize(g));
    ++fetch_.diffs_got;
    if (fetch_.base_done == fetch_.want_base && fetch_.diffs_got == fetch_.diffs_wanted) {
      fetch_.complete = true;
      wq_.notify_all();
    }
  });
}

}  // namespace cni::dsm
