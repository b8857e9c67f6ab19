// Clang Thread Safety Analysis annotations for the lock-free concurrency
// surface (DESIGN.md §13).
//
// The sharded engine keeps its invariants with atomics and protocol roles,
// not mutexes: "only the owning shard touches this lane during an epoch",
// "only the coordinator touches that vector between barriers". Those
// ownership rules are exactly what Clang's capability analysis can check at
// compile time — provided the roles are reified as *capability* objects and
// the guarded state is annotated. Under Clang with -Wthread-safety the
// annotations below become attributes and violations fail the build (the CI
// thread-safety job passes -Werror=thread-safety); under GCC and other
// compilers every macro expands to nothing, so the annotations are free.
//
// Vocabulary (mirrors the standard mutex.h reference macro set, CNI_-scoped
// so nothing collides with vendored headers):
//
//   CNI_CAPABILITY(name)      a type whose instances are capabilities
//   CNI_GUARDED_BY(cap)       member readable holding `cap` shared,
//                             writable holding it exclusively
//   CNI_PT_GUARDED_BY(cap)    same, for the pointee of a pointer member
//   CNI_REQUIRES(...)         function needs the capabilities exclusively
//   CNI_REQUIRES_SHARED(...)  function needs them at least shared
//   CNI_ACQUIRE/RELEASE(...)  function takes / returns the capabilities
//   CNI_NO_THREAD_SAFETY_ANALYSIS  opt a function out (justify in a comment)
//
// util::Capability is the phantom role object: a zero-state class whose
// acquire/release/assert methods compile to nothing but carry the
// attributes. Roles in this codebase are never blocking locks — they are
// granted by protocol edges (a barrier generation bump, a quiescent crew) —
// so acquire() marks the *protocol point* where the role is conferred, and
// assert_held() marks code that holds the role by construction (e.g. "this
// function only runs on the shard's worker after its barrier acquire").
#pragma once

// Clang implements the analysis; the attribute spellings below are accepted
// from clang 3.6 on. Guard on the capability attribute itself so exotic
// clang-derived compilers without TSA degrade to no-ops instead of erroring.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CNI_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CNI_THREAD_ANNOTATION
#define CNI_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

#define CNI_CAPABILITY(name) CNI_THREAD_ANNOTATION(capability(name))
#define CNI_SCOPED_CAPABILITY CNI_THREAD_ANNOTATION(scoped_lockable)
#define CNI_GUARDED_BY(x) CNI_THREAD_ANNOTATION(guarded_by(x))
#define CNI_PT_GUARDED_BY(x) CNI_THREAD_ANNOTATION(pt_guarded_by(x))
#define CNI_ACQUIRED_BEFORE(...) CNI_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CNI_ACQUIRED_AFTER(...) CNI_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define CNI_REQUIRES(...) CNI_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CNI_REQUIRES_SHARED(...) \
  CNI_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define CNI_ACQUIRE(...) CNI_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CNI_ACQUIRE_SHARED(...) \
  CNI_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define CNI_RELEASE(...) CNI_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CNI_RELEASE_SHARED(...) \
  CNI_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define CNI_EXCLUDES(...) CNI_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define CNI_ASSERT_CAPABILITY(x) CNI_THREAD_ANNOTATION(assert_capability(x))
#define CNI_ASSERT_SHARED_CAPABILITY(x) \
  CNI_THREAD_ANNOTATION(assert_shared_capability(x))
#define CNI_RETURN_CAPABILITY(x) CNI_THREAD_ANNOTATION(lock_returned(x))
#define CNI_NO_THREAD_SAFETY_ANALYSIS \
  CNI_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cni::util {

/// A protocol role, reified so Clang can track it. Zero state, zero cost:
/// every method is an empty inline function whose only payload is its
/// attribute. `acquire()` marks the protocol edge that confers the role
/// (thread spawn, barrier generation observed, crew quiescent);
/// `assert_held()` marks code that owns the role by construction and is the
/// right tool inside lambdas and callbacks that inherit the caller's role.
class CNI_CAPABILITY("role") Capability {
 public:
  void acquire() const CNI_ACQUIRE() {}
  void release() const CNI_RELEASE() {}
  void acquire_shared() const CNI_ACQUIRE_SHARED() {}
  void release_shared() const CNI_RELEASE_SHARED() {}
  /// Declares (does not check) that the calling context holds the role
  /// exclusively — by thread identity or a protocol edge the analysis
  /// cannot see. Keep a comment at every call site saying which one.
  void assert_held() const CNI_ASSERT_CAPABILITY(this) {}
  /// Shared-ownership form of assert_held().
  void assert_shared() const CNI_ASSERT_SHARED_CAPABILITY(this) {}
};

}  // namespace cni::util
