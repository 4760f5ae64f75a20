#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// One traced call. Spans of one query share `query` (the trace tick
/// index; 0 for spans outside the replay). Device attributes are deltas
/// over the span, summed over every simulated device involved.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t query = 0;
  const char* name = "";
  double start = 0;  // NowSeconds()
  double end = 0;
  int32_t shard = -1;  // shard index for per-shard spans
  uint64_t count = 0;  // items in a batch span (updates reported)
  double device_clock_s = 0;  // modeled device + PCIe time
  double sim_wall_s = 0;      // host time spent simulating kernels
  uint64_t h2d_bytes = 0;
  uint64_t d2h_bytes = 0;
  uint64_t kernel_launches = 0;
  /// True for children rebuilt from the program's own per-query trace
  /// record: the record holds phase durations only, so these are laid
  /// out back to back in pipeline order from their parent's start.
  bool from_record = false;
};

/// In-memory span store; written out once, when the run ends.
class SpanLog {
 public:
  /// Stores `span` with a fresh id and returns that id.
  uint64_t Add(Span span);

  /// Writes one JSON object per line. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
