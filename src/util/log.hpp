// Minimal leveled logger.
//
// Simulation components log through here so that verbose traces can be turned
// on per-run (CNI_LOG_LEVEL env var or Logger::set_level) without recompiling.
//
// Two per-run extensions:
//   * sim-time prefix — Cluster::run installs a thread-local hook returning
//     the engine's current simulated time, so every line a component logs is
//     stamped `t=<ps>` with the *simulated* instant it happened (wall clocks
//     are banned in src/ by the determinism lint). Thread-local because each
//     parallel sweep job runs its own engine on its own thread.
//   * structured mode — CNI_LOG_JSON=1 (or set_json) switches lines to one
//     JSON object each ({"lvl","t","msg"}) for machine consumption.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>

namespace cni::util {

enum class LogLevel : int { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3, kTrace = 4 };

class Logger {
 public:
  /// Returns the current simulated time in picoseconds. Plain function
  /// pointer + context (not std::function): util sits below sim and the hook
  /// may be consulted from hot-path logging.
  using TimeFn = std::uint64_t (*)(void* ctx);

  /// Global log level; reads CNI_LOG_LEVEL (0..4) from the environment once.
  /// Any other value fails a CNI_CHECK naming the variable.
  static LogLevel level();
  static void set_level(LogLevel lvl);

  static bool enabled(LogLevel lvl) { return static_cast<int>(lvl) <= static_cast<int>(level()); }

  /// Installs/clears this thread's sim-time source. Pass fn=nullptr to clear.
  static void set_time_hook(TimeFn fn, void* ctx);

  /// Structured one-object-per-line JSON output; reads CNI_LOG_JSON (0 or 1)
  /// once.
  static bool json();
  static void set_json(bool on);

  /// Redirects output (tests); nullptr restores stderr.
  static void set_stream(std::FILE* stream);

  /// printf-style log line with a level prefix; thread-safe via stdio locking.
  static void log(LogLevel lvl, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// RAII installer for the thread's sim-time hook.
class ScopedLogTime {
 public:
  ScopedLogTime(Logger::TimeFn fn, void* ctx) { Logger::set_time_hook(fn, ctx); }
  ScopedLogTime(const ScopedLogTime&) = delete;
  ScopedLogTime& operator=(const ScopedLogTime&) = delete;
  ~ScopedLogTime() { Logger::set_time_hook(nullptr, nullptr); }
};

}  // namespace cni::util

#define CNI_LOG_ERROR(...) ::cni::util::Logger::log(::cni::util::LogLevel::kError, __VA_ARGS__)
#define CNI_LOG_WARN(...) ::cni::util::Logger::log(::cni::util::LogLevel::kWarn, __VA_ARGS__)
#define CNI_LOG_INFO(...) ::cni::util::Logger::log(::cni::util::LogLevel::kInfo, __VA_ARGS__)
#define CNI_LOG_DEBUG(...) ::cni::util::Logger::log(::cni::util::LogLevel::kDebug, __VA_ARGS__)
#define CNI_LOG_TRACE(...) ::cni::util::Logger::log(::cni::util::LogLevel::kTrace, __VA_ARGS__)
