// Cooperative simulated threads (Proteus-style direct execution).
//
// Each simulated node's program runs as real C++ code on its own fiber
// (ucontext), but exactly one entity — the event engine or a single
// SimThread — executes at any instant. Control passes engine -> thread when
// a resume event fires and thread -> engine when the thread delays, blocks,
// or finishes. This gives execution-driven simulation: computation runs
// natively and is *charged* to the simulated clock via delay()/LocalClock,
// while every communication or synchronisation point yields to the engine.
//
// Fibers rather than OS threads keep a context switch at ~100 ns, which
// matters: a fine-grained DSM run performs millions of simulated blocking
// operations. Because execution is strictly serialized, code running inside
// SimThreads may freely touch shared simulator state without atomics.
#pragma once

#include <ucontext.h>

#include <csetjmp>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cni::sim {

class SimThread {
 public:
  // cni-lint: allow(hot-path-alloc): a SimThread body is constructed once
  // per simulated thread at setup, never on the per-event path; bodies are
  // large app closures for which InlineFn's 48-byte buffer is no win.
  using Body = std::function<void(SimThread&)>;

  /// Usable bytes of every fiber stack. Application kernels keep big data
  /// on the heap; half a megabyte leaves ample headroom for library frames.
  /// The size reserves address space only: a page is committed when the
  /// fiber first touches it, so a barrier-only node costs a few KB.
  static constexpr std::size_t kStackBytes = 512 * 1024;

  /// Creates the thread and schedules its first run at `start`.
  SimThread(Engine& engine, std::string name, Body body, SimTime start = 0);

  /// Unmaps the stack. An unfinished fiber (abandoned simulation, e.g. a
  /// failing test) is unmapped too — its stack objects are not unwound,
  /// which is acceptable for an abandoned run.
  ~SimThread() = default;

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  // ---- Calls made from inside the thread body ----

  /// Advances this thread's simulated time by `dt`, yielding to the engine so
  /// other work scheduled in [now, now+dt] runs first. A delaying thread must
  /// not be woken; it resumes by itself.
  void delay(SimDuration dt);

  /// Blocks until some event calls wake(). Spurious wakeups do not occur;
  /// callers should still use the condition-loop idiom via sync primitives.
  void block();

  // ---- Calls made from engine events or other threads ----

  /// Schedules this thread to resume at the current simulated time. The
  /// thread must be parked in block(). Idempotent within one instant.
  void wake();

  /// As wake(), but resumes at absolute time `t`.
  void wake_at(SimTime t);

  [[nodiscard]] bool finished() const { return state_ == State::kFinished; }
  [[nodiscard]] bool blocked() const { return state_ == State::kBlocked; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Engine& engine() { return engine_; }

  /// The SimThread whose body is executing on the calling OS thread, or
  /// nullptr when the engine (or no simulation) is running. One slot per OS
  /// thread: parallel sweep jobs each track their own.
  [[nodiscard]] static SimThread* current();

 private:
  enum class State {
    kIdle,      // created, waiting for the engine to hand over control
    kRunning,   // body executing
    kDelaying,  // parked in delay(); resumes via its own timer
    kBlocked,   // parked in block(); resumes via wake()
    kFinished,  // body returned
  };

  /// The fiber's stack: an anonymous mapping of kStackBytes with one
  /// PROT_NONE guard page below it. The stack grows down, so running off
  /// its end faults on the guard page at once instead of writing over
  /// whatever lies below. The destructor unmaps both.
  class Stack {
   public:
    Stack();
    ~Stack();
    Stack(const Stack&) = delete;
    Stack& operator=(const Stack&) = delete;
    Stack(Stack&&) = delete;
    Stack& operator=(Stack&&) = delete;

    /// Lowest usable byte, just above the guard page.
    [[nodiscard]] char* base() const { return map_ + guard_; }

   private:
    std::size_t guard_;     ///< one host page
    char* map_ = nullptr;  ///< guard page, then kStackBytes of stack
  };

  static void trampoline();

  /// Engine-side: gives the CPU to the body and waits until it yields back.
  void resume_from_engine();

  /// Thread-side: yields back to the engine, leaving state_ = s.
  void yield_to_engine(State s);

  Engine& engine_;
  std::string name_;
  Body body_;
  State state_ = State::kIdle;
  bool wake_pending_ = false;  // a wake event is already scheduled
  bool started_ = false;       // first entry must build the stack via ucontext
  std::exception_ptr error_;
  Stack stack_;
  ucontext_t fiber_{};
  ucontext_t engine_ctx_{};
  // Fast-path switch state: after the ucontext first entry, engine<->fiber
  // transfers go through _setjmp/_longjmp, which — unlike glibc swapcontext —
  // perform no sigprocmask system call. ~2x on the switch microbenchmark.
  std::jmp_buf fiber_jmp_{};   // set at yield; target of the next resume
  std::jmp_buf engine_jmp_{};  // set at resume; target of the next yield
};

/// Accumulates cycle charges locally (Proteus local clock) and converts them
/// into a single delay() at synchronisation points. Keeping charges local
/// means the hot path of a simulated memory access is just an add.
class LocalClock {
 public:
  explicit LocalClock(Clock domain) : domain_(domain) {}

  void charge_cycles(std::uint64_t cycles) { pending_cycles_ += cycles; }
  void charge_time(SimDuration d) { pending_extra_ += d; }

  [[nodiscard]] std::uint64_t pending_cycles() const { return pending_cycles_; }
  [[nodiscard]] SimDuration pending() const {
    return domain_.cycles(pending_cycles_) + pending_extra_;
  }
  [[nodiscard]] const Clock& domain() const { return domain_; }

  /// Converts all pending charge into simulated delay on `thread`.
  void sync(SimThread& thread) {
    const SimDuration d = pending();
    pending_cycles_ = 0;
    pending_extra_ = 0;
    if (d > 0) thread.delay(d);
  }

 private:
  Clock domain_;
  std::uint64_t pending_cycles_ = 0;
  SimDuration pending_extra_ = 0;
};

}  // namespace cni::sim
