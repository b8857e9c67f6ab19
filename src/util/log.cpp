#include "util/log.hpp"

#include <atomic>
#include <cinttypes>
#include <cstring>

#include "util/cli.hpp"

namespace cni::util {
namespace {

std::atomic<int> g_level{-1};      // -1 = not yet initialized
std::atomic<int> g_json{-1};       // -1 = not yet initialized
std::atomic<std::FILE*> g_stream{nullptr};  // nullptr = stderr

// The time hook is per-thread: parallel sweep jobs each run their own engine,
// and a line must be stamped with *its* engine's clock.
thread_local Logger::TimeFn t_time_fn = nullptr;
thread_local void* t_time_ctx = nullptr;

int read_env_level() {
  const auto v = env_count("CNI_LOG_LEVEL", 0, static_cast<std::uint32_t>(LogLevel::kTrace));
  return v ? static_cast<int>(*v) : static_cast<int>(LogLevel::kWarn);
}

const char* prefix(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kError: return "E";
    case LogLevel::kWarn: return "W";
    case LogLevel::kInfo: return "I";
    case LogLevel::kDebug: return "D";
    case LogLevel::kTrace: return "T";
  }
  return "?";
}

/// Writes `msg` as a JSON string body (no surrounding quotes), escaping the
/// characters JSON requires. Runs under the stream lock.
void put_json_escaped(std::FILE* f, const char* msg) {
  for (const char* p = msg; *p != '\0'; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    switch (c) {
      case '"': std::fputs("\\\"", f); break;
      case '\\': std::fputs("\\\\", f); break;
      case '\n': std::fputs("\\n", f); break;
      case '\r': std::fputs("\\r", f); break;
      case '\t': std::fputs("\\t", f); break;
      default:
        if (c < 0x20) {
          std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
        } else {
          std::fputc(*p, f);
        }
    }
  }
}

}  // namespace

LogLevel Logger::level() {
  // relaxed: a standalone config word — no other data is published through
  // it, and a racy double-read of the env var is idempotent.
  int v = g_level.load(std::memory_order_relaxed);
  if (v < 0) {
    v = read_env_level();
    // relaxed: caching the env lookup; any thread recomputes the same value.
    g_level.store(v, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(v);
}

void Logger::set_level(LogLevel lvl) {
  // relaxed: standalone config word, publishes nothing beyond itself.
  g_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

void Logger::set_time_hook(TimeFn fn, void* ctx) {
  t_time_fn = fn;
  t_time_ctx = ctx;
}

bool Logger::json() {
  // relaxed: standalone config word (see level()).
  int v = g_json.load(std::memory_order_relaxed);
  if (v < 0) {
    v = env_flag("CNI_LOG_JSON").value_or(false) ? 1 : 0;
    // relaxed: caching the env lookup; any thread recomputes the same value.
    g_json.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

// relaxed: standalone config word, publishes nothing beyond itself.
void Logger::set_json(bool on) { g_json.store(on ? 1 : 0, std::memory_order_relaxed); }

void Logger::set_stream(std::FILE* stream) {
  // relaxed: the FILE* itself is the whole message — tests install streams
  // before logging threads exist, and flockfile orders the actual writes.
  g_stream.store(stream, std::memory_order_relaxed);
}

void Logger::log(LogLevel lvl, const char* fmt, ...) {
  if (!enabled(lvl)) return;
  // relaxed: pairs with the single-word store in set_stream.
  std::FILE* f = g_stream.load(std::memory_order_relaxed);
  if (f == nullptr) f = stderr;

  const bool have_time = t_time_fn != nullptr;
  const std::uint64_t t = have_time ? t_time_fn(t_time_ctx) : 0;

  std::va_list args;
  va_start(args, fmt);
  flockfile(f);
  if (json()) {
    // One object per line. The message is formatted into a bounded buffer
    // first so it can be escaped; log lines are diagnostics, not bulk data.
    char msg[512];
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    std::fprintf(f, "{\"lvl\":\"%s\"", prefix(lvl));
    if (have_time) std::fprintf(f, ",\"t\":%" PRIu64, t);
    std::fputs(",\"msg\":\"", f);
    put_json_escaped(f, msg);
    std::fputs("\"}\n", f);
  } else {
    if (have_time) {
      std::fprintf(f, "[cni:%s t=%" PRIu64 "] ", prefix(lvl), t);
    } else {
      std::fprintf(f, "[cni:%s] ", prefix(lvl));
    }
    std::vfprintf(f, fmt, args);
    std::fputc('\n', f);
  }
  funlockfile(f);
  va_end(args);
}

}  // namespace cni::util
