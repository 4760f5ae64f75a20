#include "spans.h"

#include <cstdio>
#include <memory>

namespace servebench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

uint64_t SpanLog::Add(Span span) {
  span.id = spans_.size() + 1;
  spans_.push_back(span);
  return span.id;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(file.get(),
                 "{\"id\":%llu,\"parent\":%llu,\"query\":%llu,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name, s.start,
                 s.end);
    if (s.shard >= 0) std::fprintf(file.get(), ",\"shard\":%d", s.shard);
    if (s.count > 0) {
      std::fprintf(file.get(), ",\"count\":%llu",
                   static_cast<unsigned long long>(s.count));
    }
    if (s.device_clock_s != 0 || s.sim_wall_s != 0 || s.kernel_launches != 0) {
      std::fprintf(file.get(),
                   ",\"device_clock_s\":%.9g,\"sim_wall_s\":%.9g,"
                   "\"h2d_bytes\":%llu,\"d2h_bytes\":%llu,"
                   "\"kernel_launches\":%llu",
                   s.device_clock_s, s.sim_wall_s,
                   static_cast<unsigned long long>(s.h2d_bytes),
                   static_cast<unsigned long long>(s.d2h_bytes),
                   static_cast<unsigned long long>(s.kernel_launches));
    }
    if (s.from_record) std::fputs(",\"from_record\":true", file.get());
    std::fputs("}\n", file.get());
  }
  return std::fflush(file.get()) == 0 && std::ferror(file.get()) == 0;
}

}  // namespace servebench
