// Per-node DSM runtime: lazy-invalidate release consistency.
//
// One DsmRuntime exists per cluster node. The application thread calls the
// acquire/release/barrier/access API; the protocol itself is a set of
// handlers installed on the node's network board — Application Interrupt
// Handlers executing on the CNI's network processor, or host-side interrupt
// handlers on the standard NIC. The protocol (after Keleher et al., which
// the paper's evaluation runs):
//
//   * writes are detected by (simulated) page protection: a write fault
//     twins the page and adds it to the current interval's write notices;
//   * a release closes the interval; an acquire carries every interval the
//     acquirer has not seen, and the acquirer *invalidates* the noticed
//     pages (lazy invalidate);
//   * a fault on an invalidated page fetches a full page from a maximal
//     concurrent writer plus diffs from the other maximal writers
//     (concurrent write sharing), merged locally in happens-before order;
//   * locks use a home-based distributed manager whose grants travel
//     releaser -> acquirer directly; barriers use a centralized manager that
//     redistributes intervals (paper: lazy invalidate RC, barrier+lock apps).
//
// Page replies carry the Message Cache header bit, so on the CNI they are
// receive-cached on their way in and transmit-cached on their way out — the
// page-migration fast path the paper's Cholesky discussion highlights.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "atm/packet.hpp"
#include "cluster/cluster.hpp"
#include "dsm/interval.hpp"
#include "dsm/msg.hpp"
#include "dsm/page_state.hpp"
#include "nic/board.hpp"
#include "sim/channel.hpp"

namespace cni::dsm {

class DsmSystem;

class DsmRuntime {
 public:
  DsmRuntime(DsmSystem& system, std::uint32_t self);

  /// Binds the application thread that will call the app-side API.
  void bind_thread(sim::SimThread& thread) { thread_ = &thread; }

  // ---- Application API (call only from the bound thread) ----

  void acquire(std::uint32_t lock);
  void release(std::uint32_t lock);
  void barrier();

  /// All-reduce of one u64 over the system's collective tree: every node
  /// contributes `value` and receives the fold. Not a memory-consistency
  /// point (no interval redistribution) — a pure data collective.
  std::uint64_t reduce(ReduceOp op, std::uint64_t value);

  /// Fast-path shared access: validates protection (faulting and fetching as
  /// needed), charges the cache-model timing, and returns a pointer to the
  /// bytes. [va, va+len) must lie within one page. Only a fault makes a page
  /// accessible, and access_slow() caches the physical base after each one.
  std::byte* access(mem::VAddr va, std::uint32_t len, bool write) {
    const mem::VAddr rel = va - mem::kSharedBase;
    const std::uint64_t off = rel & page_mask_;
    CNI_CHECK_MSG(off + len <= page_mask_ + 1, "shared access straddles a page boundary");
    const PageId p = rel >> page_shift_;
    PageEntry* e = p < pages_.size() ? &pages_[p] : nullptr;
    if (e == nullptr || !(write ? e->writable() : e->readable())) {
      e = &access_slow(p, va - off, write);
    }
    cpu_.mem_access_phys(e->pa_base + off, write);
    CNI_DCHECK(!e->data.empty());
    return e->data.data() + off;
  }

  template <typename T>
  [[nodiscard]] T read(mem::VAddr va) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    std::memcpy(&v, access(va, sizeof(T), false), sizeof(T));
    return v;
  }

  template <typename T>
  void write(mem::VAddr va, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(access(va, sizeof(T), true), &value, sizeof(T));
  }

  // ---- Introspection (tests, stats) ----
  [[nodiscard]] std::uint32_t self() const { return self_; }
  [[nodiscard]] const VectorClock& clock() const { return vc_; }
  [[nodiscard]] PageMode page_mode(PageId p) const;
  [[nodiscard]] std::size_t pending_notices(PageId p) const;
  /// Whether this node holds a frame for page `p`. A frame is allocated at
  /// the node's first access to the page or when it serves the page, never
  /// for a write notice alone.
  [[nodiscard]] bool has_frame(PageId p) const;
  [[nodiscard]] const IntervalStore& interval_store() const { return store_; }
  [[nodiscard]] cluster::Node& node() { return node_; }
  /// Whether the centralized barrier-manager state exists on this node: it
  /// is allocated lazily, at the manager's first kDsmBarArrive, so every
  /// other node (and every node in kNic mode) answers false.
  [[nodiscard]] bool barrier_manager_allocated() const { return barrier_mgr_ != nullptr; }

 private:
  using Ctx = nic::NicBoard::RxContext;
  friend class DsmSystem;

  /// Installs the protocol handlers on this node's board.
  void install_handlers();
  /// A board handler that calls `Fn` on this runtime.
  template <void (DsmRuntime::*Fn)(Ctx&, const atm::Frame&)>
  nic::NicBoard::Handler bound_handler();

  // -- protocol handlers (run on the NIC for CNI, on the host for standard) --
  void on_lock_req(Ctx& ctx, const atm::Frame& f);
  void on_lock_fwd(Ctx& ctx, const atm::Frame& f);
  void on_lock_grant(Ctx& ctx, const atm::Frame& f);
  void on_lock_rel(Ctx& ctx, const atm::Frame& f);
  void on_bar_arrive(Ctx& ctx, const atm::Frame& f);
  void on_bar_release(Ctx& ctx, const atm::Frame& f);
  void on_col_up(Ctx& ctx, const atm::Frame& f);
  void on_col_down(Ctx& ctx, const atm::Frame& f);
  void on_red_up(Ctx& ctx, const atm::Frame& f);
  void on_red_down(Ctx& ctx, const atm::Frame& f);
  void on_page_req(Ctx& ctx, const atm::Frame& f);
  void on_page_reply(Ctx& ctx, const atm::Frame& f);
  void on_diff_req(Ctx& ctx, const atm::Frame& f);
  void on_diff_reply(Ctx& ctx, const atm::Frame& f);

  // -- machinery --
  /// The page's protocol state, without allocating its frame.
  PageEntry& meta(PageId p);
  /// meta() plus the frame, allocated zero-filled on first use.
  PageEntry& entry(PageId p);
  PageEntry& access_slow(PageId p, mem::VAddr page_va, bool write);
  void fault(PageId p, bool write);
  void fetch_page_data(PageEntry& e, PageId p);
  void apply_fetch_results(PageEntry& e);
  void write_upgrade(PageEntry& e, PageId p);
  void close_interval();

  /// Handles one incoming interval: adds it to the store, merges the clock
  /// component, records pending notices and invalidates affected pages
  /// (preserving any local modifications as retained diffs).
  void process_incoming_interval(const Interval& iv);

  /// Snapshots the page's open modifications (twin vs data) as a retained
  /// per-interval diff tagged `tag`, clearing the twin.
  void snapshot_own_diff(PageEntry& e, ClockView tag);

  /// Removes from `older` every byte range `newer` also covers (shadow
  /// subtraction: each byte lives in exactly one retained diff).
  static void subtract_shadowed(Diff& older, const Diff& newer);

  /// Canonical combined order for tree collectives: sorts by (writer, index)
  /// and drops duplicates, so the merged set is independent of the arrival
  /// interleaving and per-writer ascending (the dense-insert order
  /// IntervalStore requires).
  static void sort_unique_intervals(std::vector<Interval>& ivs);

  /// Schedules this node's barrier release at `at`: processes `ivs` in
  /// order, merges `global` into the clock, records the new barrier floor
  /// and wakes the app thread. Used by both ends of the tree down-sweep.
  void schedule_barrier_release(sim::SimTime at, std::vector<Interval> ivs,
                                VectorClock global);
  struct BarrierRelease;  ///< that release's event (runtime.cpp)

  /// Down-sweep fan-out of the parked barrier fold: per child, the episode
  /// intervals that child's subtree floor does not cover, plus the global
  /// clock.
  void col_down_fanout(Ctx& ctx, const VectorClock& global);

  /// Delivers a finished reduce: forwards the result to the tree children,
  /// schedules this node's own wake-up, and resets the combine slot.
  void red_down_deliver(Ctx& ctx, std::uint64_t value);

  /// Patches the message header into `payload`'s kMsgHeadroom front bytes
  /// and wraps it as a frame — the pooled buffer IS the frame payload.
  atm::Frame make_frame(std::uint32_t dst, nic::MsgType type, std::uint16_t flags,
                        std::uint32_t aux, mem::VAddr buffer_va, util::Buf payload);

  /// Sends a protocol request from the application thread (charges the
  /// request-build cost plus the board's host-side send cost). A nonzero
  /// `trace` token rides as the outgoing frame's causal parent, rooting the
  /// request's span tree under the fault or barrier that triggered it.
  void send_request(std::uint32_t dst, nic::MsgType type, std::uint32_t aux,
                    util::Buf payload, std::uint64_t trace = 0);

  /// True when the node's observability context exists and tracing is on —
  /// the gate for minting causal root tokens on this runtime's requests.
  [[nodiscard]] bool tracing() const;

  [[nodiscard]] mem::VAddr va_of_page(PageId p) const;
  [[nodiscard]] std::uint64_t page_words() const;

  // -- lock home bookkeeping (for locks homed at this node) --
  struct LockHome {
    bool held = false;
    bool has_releaser = false;
    std::uint32_t holder = 0;
    std::uint32_t last_releaser = 0;
    std::deque<std::pair<std::uint32_t, VectorClock>> waiters;
  };

  // -- centralized barrier manager (kHost mode; lazily allocated on the
  //    manager node at its first arrive, so the other N-1 runtimes never
  //    carry the state) --
  struct BarrierManager {
    explicit BarrierManager(IntervalLog& log) : store(log) {}
    std::uint32_t arrived = 0;
    std::uint32_t epoch = 0;
    std::vector<VectorClock> node_vcs;
    IntervalStore store;  ///< separate from the node's own store (see .cpp)
  };

  // -- NIC-tree collective state (DESIGN.md §16): one barrier episode and
  //    one reduce episode can be in flight; the tree's release discipline
  //    (children only start epoch E+1 after receiving E's down-sweep) makes
  //    a single combine slot per kind sufficient --
  struct ColCombine {
    std::uint32_t arrived = 0;  ///< contributions in: self + each child
    std::uint32_t epoch = 0;    ///< completed barrier episodes (aux check)
    VectorClock min;            ///< element-wise min of subtree clocks
    std::vector<std::pair<std::uint32_t, VectorClock>> child_min;  ///< per-child floors
    std::vector<Interval> ivs;  ///< combined epoch intervals (sorted, deduped, pinned)
  };
  struct RedCombine {
    std::uint32_t arrived = 0;
    std::uint32_t epoch = 0;  ///< completed reduce episodes (aux check)
    bool have = false;
    std::uint64_t value = 0;
  };

  // -- one outstanding data fetch (the app thread blocks on it) --
  struct Fetch {
    bool active = false;
    std::uint32_t req_id = 0;
    PageId page = 0;
    bool want_base = false;
    bool base_done = false;
    std::uint32_t base_from = 0;  ///< node serving the base page
    VectorClock base_vc;  ///< the base copy's shipped per-writer content clock
    VectorClock floor;    ///< per-writer content floor (filters shipped diffs)
    std::uint32_t diffs_wanted = 0;
    std::uint32_t diffs_got = 0;
    util::Buf base_keep;              ///< pins the reply payload `base` views
    std::span<const std::byte> base;  ///< shipped page image (zero-copy)
    std::vector<Diff> diffs;
    bool complete = false;
  };

  DsmSystem& sys_;
  cluster::Node& node_;
  cluster::HostCpu& cpu_;    ///< node_.cpu(), cached for access()
  unsigned page_shift_;      ///< page geometry, cached for access()
  std::uint64_t page_mask_;
  std::uint32_t self_;
  std::uint32_t nprocs_;
  sim::SimThread* thread_ = nullptr;

  VectorClock vc_;
  IntervalStore store_;
  VectorClock last_barrier_vc_;  ///< global clock of the last barrier release
  std::vector<PageEntry> pages_;
  std::vector<PageId> dirty_;  ///< pages written in the open interval (sorted at close)
  std::uint32_t next_req_id_ = 1;

  std::map<std::uint32_t, LockHome> lock_homes_;
  std::unique_ptr<BarrierManager> barrier_mgr_;
  ColCombine col_;
  RedCombine red_;

  Fetch fetch_;
  bool lock_granted_ = false;
  bool barrier_released_ = false;
  bool red_released_ = false;
  std::uint64_t red_result_ = 0;
  std::uint32_t red_calls_ = 0;  ///< app-side reduce episodes started
  sim::WaitQueue wq_;

  // Observability handles (resolved once in the constructor; may be null).
  obs::NodeObs* obs_ = nullptr;
  obs::Hist* fault_hist_ = nullptr;  ///< dsm.fault_latency_ps: trap -> page usable
};

}  // namespace cni::dsm
