// Counting replacements of the global operator new/delete, for tests that
// assert what a call does to the heap. A program may replace these operators
// only once, so include this header from exactly one source file of a test
// binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

// The replaced operators route through malloc/aligned_alloc + free, which is
// internally consistent; GCC's -Wmismatched-new-delete can't see that once
// the calls inline, so silence it for the including TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace cni::test_support {

// Per thread, so a test reads only the heap calls its own thread made.
inline thread_local std::uint64_t t_heap_news = 0;
inline thread_local std::uint64_t t_heap_deletes = 0;

/// The calling thread's heap calls since construction.
class HeapCalls {
 public:
  [[nodiscard]] std::uint64_t news() const { return t_heap_news - news_; }
  [[nodiscard]] std::uint64_t deletes() const { return t_heap_deletes - deletes_; }

 private:
  std::uint64_t news_ = t_heap_news;
  std::uint64_t deletes_ = t_heap_deletes;
};

}  // namespace cni::test_support

void* operator new(std::size_t n) {
  ++cni::test_support::t_heap_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++cni::test_support::t_heap_news;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) & ~(align - 1))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
// The nothrow forms too (std::stable_sort's temporary buffer uses one), so
// every block the replaced operator delete frees came from std::malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++cni::test_support::t_heap_news;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept {
  if (p != nullptr) ++cni::test_support::t_heap_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
