#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t Tracer::Ns(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const int64_t start = Ns(std::chrono::steady_clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.start_ns = start;
  spans_.push_back(s);
  return s.id;
}

void Tracer::End(int64_t id) {
  if (id <= 0) return;
  const int64_t end = Ns(std::chrono::steady_clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id - 1)].end_ns = end;
}

int64_t Tracer::Record(const char* name, int64_t parent, uint64_t request,
                       std::chrono::steady_clock::time_point start,
                       std::chrono::steady_clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.id = static_cast<int64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.request = request;
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  spans_.push_back(s);
  return s.id;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
