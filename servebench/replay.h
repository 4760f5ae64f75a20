#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ggrid_index.h"
#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/device_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "roadnet/graph.h"
#include "server/query_server.h"
#include "server/shard_router.h"
#include "spans.h"
#include "util/rng.h"
#include "workload/moving_objects.h"

namespace servebench {

using gknn::core::KnnResultEntry;
using gknn::roadnet::Distance;
using gknn::roadnet::EdgePoint;

/// One workload: network, fleet, query schedule and serving layout.
struct WorkloadSpec {
  const char* name;
  const char* dataset;  // Table II network, instantiated at 1/scale
  uint32_t scale;
  uint32_t num_objects;
  double update_hz;     // the paper's f
  double tick_seconds;  // simulated time between two queries
  uint32_t k;
  /// Every range_every-th query is a range query whose radius holds about
  /// k objects; the others are kNN.
  uint32_t range_every;
  uint32_t shards;             // 0 = one QueryServer, else a ShardRouter
  uint32_t devices_per_shard;  // simulated devices behind each engine
  /// Timed ticks replayed per second of --seconds. Fixed per workload so
  /// every run on a seed replays the same operations.
  uint32_t ticks_per_second;
};

const WorkloadSpec* FindWorkload(std::string_view name);
std::string WorkloadNames();

/// One query of the trace with the updates reported before it.
struct Tick {
  uint64_t index = 0;  // 0 is the set-up query; the replay starts at 1
  double time = 0;
  uint32_t first_update = 0;  // into Chunk::updates
  uint32_t num_updates = 0;
  EdgePoint location;
  bool range = false;
  int32_t expected = -1;  // into Chunk::expected; -1 = not checked
};

struct Chunk {
  std::vector<gknn::workload::LocationUpdate> updates;
  std::vector<Tick> ticks;
  std::vector<std::vector<KnnResultEntry>> expected;
};

/// Generates the seeded trace a chunk at a time, outside any timed span:
/// simulator updates, query points and kinds, and the oracle's answers for
/// the sampled queries. The same (workload, seed, length, check mode)
/// always yields the same trace.
class TraceGenerator {
 public:
  TraceGenerator(const gknn::roadnet::Graph* graph, const Oracle* oracle,
                 const WorkloadSpec& spec, uint64_t seed, uint64_t num_ticks,
                 bool check_all);

  /// The fleet's initial reports (time 0) and the set-up query.
  const std::vector<gknn::workload::LocationUpdate>& snapshot() const {
    return snapshot_;
  }
  const Tick& setup_query() const { return setup_query_; }
  const std::vector<KnnResultEntry>& setup_expected() const {
    return setup_expected_;
  }
  Distance radius() const { return radius_; }
  uint32_t k() const { return spec_.k; }
  /// The size every kNN answer must have: min(k, objects) on a strongly
  /// connected network, where every object is reachable from every point;
  /// 0 on any other network, where only size <= k is checked.
  uint32_t knn_size() const { return knn_size_; }
  uint64_t num_ticks() const { return num_ticks_; }

  /// Fills the next chunk; false once the trace is exhausted.
  bool NextChunk(Chunk* chunk);

 private:
  EdgePoint RandomPoint(gknn::util::Rng* rng) const;
  bool IsChecked(uint64_t tick);

  const gknn::roadnet::Graph* graph_;
  const Oracle* oracle_;
  WorkloadSpec spec_;
  uint64_t num_ticks_;
  bool check_all_;
  gknn::workload::MovingObjectSimulator sim_;
  gknn::util::Rng query_rng_;
  gknn::util::Rng check_rng_;
  uint64_t check_stride_ = 1;
  uint64_t next_checked_ = 0;
  std::vector<gknn::workload::LocationUpdate> snapshot_;
  Tick setup_query_;
  std::vector<KnnResultEntry> setup_expected_;
  Distance radius_ = 0;
  uint32_t knn_size_ = 0;
  uint64_t next_tick_ = 1;
  uint32_t ticks_per_chunk_ = 1;
};

/// Sums of the device-side clocks and counters over a set of devices.
struct DeviceTotals {
  double clock_s = 0;
  double sim_wall_s = 0;
  uint64_t h2d_bytes = 0;
  uint64_t d2h_bytes = 0;
  double transfer_s = 0;
  uint64_t kernel_launches = 0;
};

/// Per-kernel totals summed over devices (a map copy per device; read at
/// the ends of the timed replay only).
struct KernelSums {
  double modeled_s = 0;
  uint64_t sdist_iterations = 0;
};

/// The registry series one index exposes that the per-layer metrics use,
/// resolved once so reading them is a few atomic loads.
struct IndexSeries {
  explicit IndexSeries(gknn::core::GGridIndex* index);
  gknn::core::GGridIndex* index;
  gknn::obs::Histogram* drain;
  gknn::obs::Histogram* query;
  std::array<gknn::obs::Histogram*, gknn::obs::kNumPhases> phase;
  gknn::obs::Histogram* clean_pipeline;
  gknn::obs::Counter* cells_examined;
  gknn::obs::Counter* clean_cells;
  gknn::obs::Counter* clean_served_compacted;
  gknn::obs::Counter* buckets_expired;
  gknn::obs::Counter* messages_shipped;
  gknn::obs::Counter* messages_deduped;
};

/// Registry values summed over the indexes of a target.
struct RegistrySums {
  double drain_s = 0;
  std::array<double, gknn::obs::kNumPhases> phase_s{};
  double clean_pipeline_s = 0;
  uint64_t cells_examined = 0;
  uint64_t clean_cells = 0;
  uint64_t clean_served_compacted = 0;
  uint64_t buckets_expired = 0;
  uint64_t messages_shipped = 0;
  uint64_t messages_deduped = 0;
};

/// The serving entry points under test: one QueryServer, or a ShardRouter
/// whose range queries the client fans out over every shard's
/// QueryServer::QueryRange (the router has no range entry point).
class Target {
 public:
  static gknn::util::Result<std::unique_ptr<Target>> Create(
      const gknn::roadnet::Graph* graph, const WorkloadSpec& spec);

  void Report(gknn::core::ObjectId object, EdgePoint position, double time) {
    if (router_) {
      router_->Report(object, position, time);
    } else {
      server_->Report(object, position, time);
    }
  }
  gknn::util::Result<std::vector<KnnResultEntry>> Knn(EdgePoint location,
                                                      uint32_t k,
                                                      double t_now) {
    return router_ ? router_->QueryKnn(location, k, t_now)
                   : server_->QueryKnn(location, k, t_now);
  }
  /// `shard_times`, when given, receives the (start, end) NowSeconds() of
  /// each shard's call of a sharded range query.
  gknn::util::Result<std::vector<KnnResultEntry>> Range(
      EdgePoint location, Distance radius, double t_now,
      std::vector<std::pair<double, double>>* shard_times = nullptr);

  bool sharded() const { return router_ != nullptr; }
  gknn::server::ShardRouter* router() { return router_.get(); }
  uint64_t pending_updates() const;
  uint64_t applied_updates() const;
  /// Memory of every index, summed over shards.
  gknn::core::GGridIndex::MemoryBreakdown Memory() const;
  uint64_t cached_messages() const;
  uint64_t tombstones() const;

  DeviceTotals ReadDevices() const;
  KernelSums ReadKernels() const;
  RegistrySums ReadRegistry() const;
  /// Per-index series, one per shard (one entry for a single server).
  const std::vector<IndexSeries>& series() const { return series_; }

 private:
  Target() = default;
  void Collect();

  std::unique_ptr<gknn::gpusim::Device> device_;
  std::unique_ptr<gknn::server::QueryServer> server_;
  std::unique_ptr<gknn::server::ShardRouter> router_;
  std::vector<gknn::gpusim::Device*> devices_;
  std::vector<IndexSeries> series_;
};

/// Everything one replay measured. Latencies cover timed ticks only.
struct ReplayResult {
  std::vector<double> knn_us;
  std::vector<double> range_us;
  double replay_wall_s = 0;  // every Report and query call, timed ticks
  uint64_t timed_queries = 0;
  uint64_t timed_updates = 0;
  uint64_t router_queries = 0;  // timed logical kNN queries via the router
  DeviceTotals devices_delta;
  KernelSums kernels_delta;
  RegistrySums registry_delta;
  gknn::server::RouterStats router_start;
  gknn::server::RouterStats router_end;
  uint64_t index_bytes = 0;

  uint64_t attempted = 0;  // Report and query calls issued
  uint64_t failed = 0;     // query calls that returned an error
  uint64_t checked = 0;    // answers compared with the oracle
  uint64_t mismatches = 0;
  std::string first_problem;

  // Traced replay only.
  double report_s = 0;        // wall time of the timed Report batches
  double server_overhead_s = 0;  // entry latency - engine - drain
  double router_overhead_s = 0;  // router latency - shard engine - drain
  uint64_t useful_shards = 0;    // shards owning an answer, summed
  uint64_t shard_subqueries = 0;
};

/// Checks one answer against the properties every answer has and, on a
/// sampled tick, against the oracle. Returns "" or a description.
std::string CheckAnswer(const TraceGenerator& trace, const Tick& tick,
                        const Chunk& chunk,
                        const std::vector<KnnResultEntry>& got);

/// Checks the set-up query's answer against the oracle.
std::string CheckSetupAnswer(const TraceGenerator& trace,
                             const std::vector<KnnResultEntry>& got);

/// Replays the trace after the set-up query through `target`; the first
/// `warmup_ticks` ticks run untimed. With `spans` set, every call becomes
/// a span and the per-layer sums are filled.
ReplayResult Replay(Target* target, TraceGenerator* trace,
                    const WorkloadSpec& spec, uint64_t warmup_ticks,
                    SpanLog* spans);

/// The same trace through a bare GGridIndex (Ingest / QueryKnn /
/// QueryRange) with KnnStats collected: the counts only KnnStats carries.
struct DirectResult {
  double build_s = 0;
  double ingest_s = 0;
  uint64_t ingested = 0;
  uint64_t queries = 0;
  uint64_t candidate_vertices = 0;
  uint64_t unresolved_vertices = 0;
  uint64_t refined_objects = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first_problem;
};
DirectResult ReplayDirect(const gknn::roadnet::Graph* graph,
                          TraceGenerator* trace, const WorkloadSpec& spec,
                          uint64_t warmup_ticks, SpanLog* spans);

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
