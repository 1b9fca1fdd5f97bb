// In-memory span recorder for the benchmark's traced run. The benchmark
// wraps each call it makes into a library layer in a span; spans stay in
// memory while the run measures and are written out as JSON lines when it
// ends (perfbench/spans.py reduces them to per-layer self times).
//
// A disabled tracer records nothing: Begin returns 0 and End ignores it,
// so untraced runs pay one branch per call site.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // Static string: the layer call.
  int64_t id = 0;         // 1-based; 0 is "no span".
  int64_t parent = 0;     // Enclosing span, 0 for a root.
  uint64_t request = 0;   // Shared by every span of one query.
  int64_t start_ns = 0;   // steady_clock, relative to the tracer's epoch.
  int64_t end_ns = -1;    // -1 while open.
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  /// Closes span `id` (no-op for 0).
  void End(int64_t id);

  /// Records an already-timed span [start, end] (for intervals known only
  /// afterwards, such as an async request from Submit to completion).
  int64_t Record(const char* name, int64_t parent, uint64_t request,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end);

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Ns(std::chrono::steady_clock::time_point t) const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_; index == id - 1.
};

/// RAII span; closes on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t parent,
             uint64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
