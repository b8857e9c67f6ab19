#include "sim/process.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "util/check.hpp"
#include "util/sanitizers.hpp"

// Switch mechanism selection. The first entry into a fiber must go through
// ucontext (only makecontext can start execution on a fresh stack), but every
// later engine<->fiber transfer only needs to save and restore registers —
// which _setjmp/_longjmp do entirely in user space, while glibc's swapcontext
// adds a sigprocmask system call per switch. Sanitizers, however, hook the
// ucontext entry points to track stack switches and would mis-poison frames
// jumped over by a cross-stack longjmp, so they keep the pure ucontext path.
#define CNI_FIBER_UCONTEXT_ONLY CNI_MEMORY_SANITIZER

namespace cni::sim {

namespace {

/// The fiber whose body is executing on this OS thread (engine running:
/// nullptr); one slot per OS thread, so parallel sweep jobs each track their
/// own. Set by resume_from_engine before control transfers, so the
/// trampoline reads it directly instead of reassembling `this` from the two
/// unsigned halves makecontext can pass.
thread_local SimThread* t_current = nullptr;

}  // namespace

// MAP_NORESERVE: the stack is address space, not a commit charge — 4096
// fibers reserve 2 GB but commit only the pages they touch.
SimThread::Stack::Stack() : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))) {
  void* const map = mmap(nullptr, guard_ + kStackBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  CNI_CHECK_MSG(map != MAP_FAILED, std::strerror(errno));
  map_ = static_cast<char*>(map);
  CNI_CHECK_MSG(mprotect(map_, guard_, PROT_NONE) == 0, std::strerror(errno));
}

SimThread::Stack::~Stack() {
  CNI_CHECK_MSG(munmap(map_, guard_ + kStackBytes) == 0, std::strerror(errno));
}

SimThread::SimThread(Engine& engine, std::string name, Body body, SimTime start)
    : engine_(engine), name_(std::move(name)), body_(std::move(body)) {
  CNI_CHECK(getcontext(&fiber_) == 0);
  fiber_.uc_stack.ss_sp = stack_.base();
  fiber_.uc_stack.ss_size = kStackBytes;
  fiber_.uc_link = nullptr;  // the trampoline always swaps back explicitly
  makecontext(&fiber_, &SimThread::trampoline, 0);
  engine_.schedule_at(start, [this] { resume_from_engine(); });
}

void SimThread::trampoline() {
  SimThread* const self = t_current;
  CNI_CHECK_MSG(self != nullptr, "fiber entered outside resume_from_engine");
  try {
    self->body_(*self);
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->yield_to_engine(State::kFinished);
  CNI_CHECK_MSG(false, "resumed a finished fiber");
}

void SimThread::resume_from_engine() {
  CNI_CHECK_MSG(state_ != State::kFinished, "resumed a finished SimThread");
  CNI_CHECK_MSG(state_ != State::kRunning, "resumed a running SimThread");
  wake_pending_ = false;
  state_ = State::kRunning;
  SimThread* const prev = t_current;
  t_current = this;
#if CNI_FIBER_UCONTEXT_ONLY
  if (!started_) started_ = true;
  CNI_CHECK(swapcontext(&engine_ctx_, &fiber_) == 0);
#else
  if (_setjmp(engine_jmp_) == 0) {
    if (started_) {
      _longjmp(fiber_jmp_, 1);
    }
    started_ = true;
    // First entry: only ucontext can start the fresh stack. The context
    // saved into engine_ctx_ is never resumed — the fiber's first yield
    // longjmps straight back to the _setjmp above.
    CNI_CHECK(swapcontext(&engine_ctx_, &fiber_) == 0);
  }
#endif
  // The fiber yielded back (delay/block/finish).
  t_current = prev;
  if (error_ != nullptr) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void SimThread::yield_to_engine(State s) {
  state_ = s;
#if CNI_FIBER_UCONTEXT_ONLY
  CNI_CHECK(swapcontext(&fiber_, &engine_ctx_) == 0);
#else
  if (_setjmp(fiber_jmp_) == 0) _longjmp(engine_jmp_, 1);
#endif
}

void SimThread::delay(SimDuration dt) {
  if (dt == 0) return;
  engine_.schedule_after(dt, [this] { resume_from_engine(); });
  yield_to_engine(State::kDelaying);
}

void SimThread::block() { yield_to_engine(State::kBlocked); }

void SimThread::wake() { wake_at(engine_.now()); }

void SimThread::wake_at(SimTime t) {
  // Several same-instant events may try to unblock the same waiter; only the
  // first wake schedules a resume.
  if (wake_pending_) return;
  CNI_CHECK_MSG(state_ == State::kBlocked,
                "wake() requires the target to be parked in block()");
  wake_pending_ = true;
  engine_.schedule_at(t, [this] { resume_from_engine(); });
}

}  // namespace cni::sim
