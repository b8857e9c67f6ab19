// Per-thread DSM handle: the API the application kernels program against.
#pragma once

#include "cluster/host.hpp"
#include "dsm/runtime.hpp"
#include "dsm/system.hpp"
#include "sim/process.hpp"

namespace cni::dsm {

class DsmContext {
 public:
  DsmContext(DsmSystem& system, std::size_t node, sim::SimThread& thread)
      : rt_(system.runtime(node)), thread_(thread) {
    rt_.bind_thread(thread);
  }

  [[nodiscard]] std::uint32_t self() const { return rt_.self(); }
  [[nodiscard]] DsmRuntime& runtime() { return rt_; }
  [[nodiscard]] sim::SimThread& thread() { return thread_; }

  // ---- Synchronisation ----
  void acquire(std::uint32_t lock) { rt_.acquire(lock); }
  void release(std::uint32_t lock) { rt_.release(lock); }
  void barrier() { rt_.barrier(); }

  // ---- Data collectives (all nodes must call; see DsmRuntime) ----
  std::uint64_t reduce_u64(ReduceOp op, std::uint64_t value) {
    return rt_.reduce(op, value);
  }

  // ---- Shared access ----
  template <typename T>
  [[nodiscard]] T read(mem::VAddr va) {
    return rt_.read<T>(va);
  }

  template <typename T>
  void write(mem::VAddr va, T value) {
    rt_.write<T>(va, value);
  }

  /// Tallies this node's share of RunResult::answer, at no simulated cost.
  void add_answer(double v) { answer_ += v; }
  [[nodiscard]] double answer() const { return answer_; }

  /// Charges pure computation (ALU work between shared accesses).
  void compute(std::uint64_t cycles) { rt_.node().cpu().compute(cycles); }

  /// Spends `cycles` busy-waiting: advances time without crediting the
  /// computation account, so spin loops land in the synch-delay category
  /// (the paper's accounting for time lost to synchronization).
  void idle(std::uint64_t cycles) {
    rt_.node().cpu().sync(thread_);
    thread_.delay(rt_.node().cpu().cpu_clock().cycles(cycles));
  }

 private:
  DsmRuntime& rt_;
  sim::SimThread& thread_;
  double answer_ = 0;
};

/// A typed view over a shared allocation; each node's thread makes its own.
template <typename T>
class SharedArray {
 public:
  SharedArray(DsmContext& ctx, mem::VAddr base, std::uint64_t count)
      : ctx_(ctx), base_(base), count_(count) {}

  [[nodiscard]] std::uint64_t size() const { return count_; }
  [[nodiscard]] mem::VAddr addr(std::uint64_t i) const { return base_ + i * sizeof(T); }

  [[nodiscard]] T get(std::uint64_t i) const {
    CNI_DCHECK(i < count_);
    return ctx_.template read<T>(addr(i));
  }

  void set(std::uint64_t i, T v) {
    CNI_DCHECK(i < count_);
    ctx_.template write<T>(addr(i), v);
  }

 private:
  DsmContext& ctx_;
  mem::VAddr base_;
  std::uint64_t count_;
};

}  // namespace cni::dsm
