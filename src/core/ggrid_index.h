#ifndef GKNN_CORE_GGRID_INDEX_H_
#define GKNN_CORE_GGRID_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/graph_grid.h"
#include "core/knn_engine.h"
#include "core/message_cleaner.h"
#include "core/message_list.h"
#include "core/object_table.h"
#include "core/options.h"
#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/device_buffer.h"
#include "gpusim/device_set.h"
#include "gpusim/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/result.h"

namespace gknn::core {

/// The G-Grid index (paper §III): graph grid + object table + per-cell
/// message lists, with lazy GPU-cleaned updates and CPU-GPU collaborative
/// kNN queries.
///
/// Usage:
///   gpusim::Device device;
///   auto index = GGridIndex::Build(&graph, options, &device);
///   index->Ingest(object_id, {edge, offset}, now);     // per update
///   auto result = index->QueryKnn({edge, offset}, k, now);
///
/// The graph and device must outlive the index.
///
/// Thread-safety (docs/CONCURRENCY.md): the query methods — QueryKnn,
/// QueryRange, QueryKnnBatch — may run concurrently with each other; the
/// lazy message cleaning they perform is serialized per cell inside
/// MessageCleaner, and per-query scratch lives in KnnEngine workspaces.
/// Everything that *writes* the index (Ingest, Remove, CleanCells,
/// TrimCaches, Save/LoadSnapshot) requires exclusive access: no query may
/// be in flight. QueryServer enforces this with a reader-writer lock.
class GGridIndex {
 public:
  /// Size report matching Fig. 6's breakdown.
  struct MemoryBreakdown {
    uint64_t grid_cpu = 0;       // graph grid arrays (host copy, if built here)
    uint64_t object_table = 0;   // hash table of latest locations
    uint64_t message_lists = 0;  // bucket arena + list headers
    uint64_t support = 0;        // eager edge->objects registry
    uint64_t grid_gpu = 0;       // device-resident copy of the grid
    uint64_t cpu_total() const {
      return grid_cpu + object_table + message_lists + support;
    }
    uint64_t total() const { return cpu_total() + grid_gpu; }
  };

  /// Cumulative counters for the benchmark harness. Relaxed atomics:
  /// queries bump queries_processed (and clean_fallbacks) concurrently.
  /// Read each field individually; the set is only mutually consistent
  /// while no query or update is in flight.
  struct Counters {
    std::atomic<uint64_t> updates_ingested{0};
    std::atomic<uint64_t> tombstones_written{0};
    std::atomic<uint64_t> queries_processed{0};
    /// Cleaning batches that hit a device error and were transparently
    /// re-run on the host (the GPU pass rolls back transactionally first).
    std::atomic<uint64_t> clean_fallbacks{0};
  };

  /// Single-device form: wraps `device` in an internal singleton set. The
  /// graph and device must outlive the index.
  static util::Result<std::unique_ptr<GGridIndex>> Build(
      const roadnet::Graph* graph, const GGridOptions& options,
      gpusim::Device* device);

  /// Multi-device form: the index mirrors the grid onto every device of
  /// the set, cleans and queries through a multi-stream scheduler that
  /// spreads concurrent work across the devices, and migrates around a
  /// failed fault domain. Answers are identical for every set size
  /// (test_scheduler_differential). The set must outlive the index.
  static util::Result<std::unique_ptr<GGridIndex>> Build(
      const roadnet::Graph* graph, const GGridOptions& options,
      gpusim::DeviceSet* devices);

  /// As above over an existing host grid, shared with the indexes it was
  /// built for (ShardRouter's shards partition the graph once). The grid
  /// must have been built with `options`' delta_c, delta_v and partition
  /// options. Every device of the set still gets its own mirror; Memory()
  /// leaves the host grid to the index that built it.
  static util::Result<std::unique_ptr<GGridIndex>> Build(
      std::shared_ptr<const GraphGrid> grid, const GGridOptions& options,
      gpusim::DeviceSet* devices);

  /// Ingests one location update (paper Algorithm 1): appends the message
  /// to its cell's list, writes a departure tombstone to the previous cell
  /// when the object moved between cells, and refreshes the object table.
  /// Returns InvalidArgument for a position off the network (the index is
  /// untouched), and no other error: under eager_updates a device error
  /// in the clean falls back to the host pass (see CleanCells).
  util::Status Ingest(ObjectId object, roadnet::EdgePoint position,
                      double time);

  /// Removes an object from the index (e.g. a car going off duty): writes
  /// a departure tombstone to its cell and erases it from the eager
  /// structures. Subsequent queries will not return it. No-op for unknown
  /// objects.
  util::Status Remove(ObjectId object, double time);

  /// Forces message cleaning of the given cells (used by the eager-update
  /// ablation and by maintenance jobs that want to trim caches off-peak).
  /// A device error rolls the GPU pass back and re-runs the batch on the
  /// host (counted in Counters::clean_fallbacks), so this only fails on
  /// non-device errors.
  util::Status CleanCells(std::span<const CellId> cells, double t_now);

  /// Maintenance sweep: cleans every cell whose list holds messages, which
  /// discards expired buckets and compacts the rest — bounding message
  /// memory to one entry per object between sweeps. Intended for off-peak
  /// housekeeping; queries trigger the same cleaning lazily.
  util::Status TrimCaches(double t_now);

  /// Persists the current object state (the object table: every live
  /// object's latest position and report time) so a restarted server can
  /// resume without replaying the update history. Pending uncleaned
  /// messages are compacted first; the graph grid itself is saved
  /// separately via WriteGraphGrid (core/grid_io.h).
  util::Status SaveSnapshot(const std::string& path, double t_now);

  /// Restores a snapshot written by SaveSnapshot into this (freshly built)
  /// index: every object is re-registered at its saved position. Fails if
  /// the snapshot does not fit the graph.
  util::Status LoadSnapshot(const std::string& path);

  /// Answers a batch of queries issued at the same time, sharing one
  /// message-cleaning pass over the union of their candidate regions (the
  /// paper: "our system can process multiple queries in parallel" — this
  /// is where G-Grid's amortized time beats its per-query latency).
  /// Results are identical to issuing the queries one by one.
  util::Result<std::vector<std::vector<KnnResultEntry>>> QueryKnnBatch(
      std::span<const roadnet::EdgePoint> locations, uint32_t k,
      double t_now, KnnStats* aggregate_stats = nullptr,
      ExecMode mode = ExecMode::kAuto);

  /// Answers a snapshot kNN query at time `t_now`. Under the default
  /// ExecMode::kAuto a device error transparently falls back to the exact
  /// CPU-only path (see KnnEngine::Query).
  util::Result<std::vector<KnnResultEntry>> QueryKnn(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  /// Range query (extension): every object within network distance
  /// `radius`, sorted ascending.
  util::Result<std::vector<KnnResultEntry>> QueryRange(
      roadnet::EdgePoint location, roadnet::Distance radius, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  MemoryBreakdown Memory() const;
  const Counters& counters() const { return counters_; }
  const EngineCounters& engine_counters() const { return engine_->counters(); }
  const GraphGrid& grid() const { return *grid_; }
  std::shared_ptr<const GraphGrid> shared_grid() const { return grid_; }
  const ObjectTable& object_table() const { return object_table_; }
  const GGridOptions& options() const { return options_; }
  /// Device 0 of the set (the only device in single-device builds).
  gpusim::Device& device() { return devices_->device(0); }
  /// Every simulated device serving this index. Tests reach individual
  /// fault domains through here (e.g. device_set().device(i).SetFaultSpec).
  gpusim::DeviceSet& device_set() { return *devices_; }
  const gpusim::DeviceSet& device_set() const { return *devices_; }
  uint32_t num_devices() const { return devices_->size(); }
  /// The multi-stream scheduler placing clean/query phase work.
  gpusim::Scheduler& scheduler() { return *scheduler_; }

  /// Total messages currently cached across all message lists (pending +
  /// compacted).
  uint64_t cached_messages() const;

  /// The index's observability registry: query/cleaning histograms and
  /// counters accumulate here as work happens; FoldDeviceMetrics() adds the
  /// device-side totals on demand.
  obs::MetricRegistry& metrics() { return registry_; }
  const obs::MetricRegistry& metrics() const { return registry_; }
  obs::Tracer& tracer() { return tracer_; }

  /// Folds the device totals — modeled clock, kernel launches, per-kernel
  /// timing, transfer-ledger volume/latency, memory breakdown — into the
  /// registry as gauges, plus this index's cumulative Counters. Unlabelled
  /// series are always sums over the whole set; with more than one device
  /// each summed device gauge is additionally emitted per device under a
  /// `device="i"` label (mirroring ShardRouter's shard labels), alongside
  /// the scheduler's placement counters. Call before Snapshot/Render so
  /// the exposition reconciles with Device/TransferLedger state. Requires
  /// exclusive access (quiesced queries) for a mutually consistent
  /// snapshot; QueryServer calls it under its writer lock.
  void FoldDeviceMetrics();

 private:
  GGridIndex(const roadnet::Graph* graph, const GGridOptions& options,
             gpusim::DeviceSet* devices);

  static util::Status ValidateOptions(const GGridOptions& options);

  const roadnet::Graph* graph_;
  GGridOptions options_;
  /// Owned only by the single-device Build form (wraps the caller's
  /// device in an adopting singleton set).
  std::unique_ptr<gpusim::DeviceSet> owned_set_;
  gpusim::DeviceSet* devices_;
  std::unique_ptr<gpusim::Scheduler> scheduler_;

  std::shared_ptr<const GraphGrid> grid_;
  /// True for the index that built the grid; indexes it is shared with
  /// leave it out of Memory().
  bool counts_host_grid_ = false;
  /// Device-resident grid mirror, one per device of the set (§III-A: the
  /// grid is replicated, objects/messages are partitioned by cell).
  std::vector<gpusim::DeviceBuffer<uint8_t>> grid_gpu_copies_;
  BucketArena arena_;
  std::vector<MessageList> lists_;
  ObjectTable object_table_;
  EdgeObjectMap objects_on_edge_;
  std::unique_ptr<MessageCleaner> cleaner_;
  std::unique_ptr<KnnEngine> engine_;
  Counters counters_;
  uint64_t next_seq_ = 1;

  obs::MetricRegistry registry_;
  obs::Tracer tracer_;
  obs::Counter* updates_total_;
  obs::Counter* tombstones_total_;
  obs::Counter* clean_fallbacks_total_;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_GGRID_INDEX_H_
