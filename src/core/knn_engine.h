#ifndef GKNN_CORE_KNN_ENGINE_H_
#define GKNN_CORE_KNN_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/graph_grid.h"
#include "core/message_cleaner.h"
#include "core/message_list.h"
#include "core/object_table.h"
#include "core/options.h"
#include "core/types.h"
#include "gpusim/device.h"
#include "gpusim/scheduler.h"
#include "obs/trace.h"
#include "roadnet/dijkstra.h"
#include "util/deadline.h"
#include "util/object_pool.h"
#include "util/result.h"

namespace gknn::core {

/// Objects currently located on each edge; maintained eagerly by the index
/// at ingest time and consulted by the CPU refinement step to find data
/// objects inside unresolved ranges.
using EdgeObjectMap =
    std::unordered_map<roadnet::EdgeId, std::vector<ObjectId>>;

/// How a query is executed (robustness plumbing, docs/ROBUSTNESS.md).
enum class ExecMode : uint8_t {
  /// Try the GPU pipeline; on a device error (injected fault, exhausted
  /// memory) transparently re-run the query on the CPU-only path.
  kAuto,
  /// GPU pipeline only; device errors propagate to the caller. The query
  /// server uses this so its retry/circuit-breaker policy sees failures.
  kGpuOnly,
  /// CPU-only path: host message compaction + bounded Dijkstra over the
  /// object table. Exact (same answers), just not accelerated.
  kCpuOnly,
};

/// Per-query execution controls threaded down from the server's overload
/// layer (docs/ROBUSTNESS.md "Overload control"). Optional on every query
/// entry point; null means "no budget, full fidelity".
struct QueryControl {
  /// Latency budget. The engine checks it at phase boundaries
  /// (expand/clean/SDist/top-k/refine) — the cooperative cancellation
  /// checkpoints — and aborts with Status::DeadlineExceeded, so a query
  /// that blows its budget releases its workspace (and the caller its
  /// reader lock) within one phase rather than running to completion.
  util::Deadline deadline;
  /// Brownout knob: scales the candidate-ring target rho*k. Values < 1
  /// shrink the GPU-examined region under load. Answers stay exact — the
  /// boundary refinement settles anything a smaller ring misses — the
  /// query just shifts work from the device to host refinement.
  double rho_scale = 1.0;
};

/// Per-query statistics surfaced to the benchmark harness.
struct KnnStats {
  uint32_t cells_examined = 0;       // |L| after expansion
  uint32_t expansion_rounds = 0;     // ring expansions beyond the first
  uint32_t candidate_objects = 0;    // |C|
  uint32_t candidate_vertices = 0;   // |V| sent to GPU_SDist
  uint32_t sdist_iterations = 0;     // Bellman-Ford rounds executed
  uint32_t unresolved_vertices = 0;  // |U|
  /// Objects Refine_kNN added that the candidate step had not (the CPU
  /// path's candidate step is the along-edge offer).
  uint32_t refined_objects = 0;
  double clean_pipeline_seconds = 0;  // modeled cleaning pipeline time
  double gpu_seconds = 0;             // modeled device time (kernels+copies)
  double cpu_seconds = 0;             // measured host time of CPU phases
  uint64_t h2d_bytes = 0;             // transfer volume for this query
  uint64_t d2h_bytes = 0;
  double transfer_seconds = 0;        // modeled PCIe time for this query
  /// Trace id of this query (0 when the engine has no tracer). Concurrent
  /// callers use it to find their own record in the trace ring.
  uint64_t query_id = 0;
  /// True when the answer came from the CPU-only path (requested via
  /// ExecMode::kCpuOnly or after a device error under kAuto).
  bool cpu_fallback = false;
};

/// Cumulative degradation counters of one engine (never reset). The fields
/// are relaxed atomics so concurrent queries can bump them; read them
/// individually — the set is only mutually consistent while no query is in
/// flight.
struct EngineCounters {
  std::atomic<uint64_t> gpu_failures{0};  // GPU-path queries with device error
  std::atomic<uint64_t> fallback_queries{0};  // kAuto re-runs on the CPU path
  std::atomic<uint64_t> cpu_queries{0};  // queries requested as kCpuOnly
  /// kAuto queries whose GPU attempt failed on one device and succeeded
  /// after migrating to a different device of the set (multi-device only;
  /// requires a scheduler).
  std::atomic<uint64_t> migrated_queries{0};
};

/// The CPU-GPU collaborative kNN processor (paper §V, Algorithm 4):
/// candidate cells are grown around the query until they hold rho*k
/// objects, their message lists are GPU-cleaned, GPU_SDist computes
/// subgraph shortest-path distances, GPU_First_k extracts candidates,
/// GPU_Unresolved finds boundary vertices whose unresolved range could
/// hide closer objects, and Refine_kNN settles those ranges with a bounded
/// multi-source Dijkstra on the host (Algorithm 6).
///
/// Thread-safety (docs/CONCURRENCY.md): Query and QueryRange may be called
/// from any number of threads concurrently, provided no thread mutates the
/// index structures (message lists, object table, grid) at the same time —
/// lazy message cleaning is the one mutation queries perform themselves,
/// and MessageCleaner serializes it per cell. Each in-flight query leases
/// a private QueryWorkspace (scratch vectors + Dijkstra state) from an
/// internal pool, so queries share no mutable engine state beyond the
/// atomic counters and the tracer.
class KnnEngine {
 public:
  /// Each GPU-path attempt leases a device from `scheduler`, and a device
  /// error under kAuto first migrates once to a different device of the
  /// set before falling back to the CPU path. Every Query/QueryRange emits
  /// a QueryTraceRecord with per-phase spans into `tracer`. Neither is
  /// owned; both must outlive the engine.
  KnnEngine(gpusim::Scheduler* scheduler, obs::Tracer* tracer,
            const GraphGrid* grid, MessageCleaner* cleaner,
            BucketArena* arena, std::vector<MessageList>* lists,
            const ObjectTable* object_table,
            const EdgeObjectMap* objects_on_edge, const GGridOptions* options);

  /// Answers one snapshot kNN query at time `t_now`. Returns up to k
  /// entries sorted by ascending network distance (fewer when the whole
  /// network holds fewer reachable objects). `mode` selects the execution
  /// path; under the default kAuto a device error falls back to the exact
  /// CPU-only path, so only argument errors reach the caller.
  util::Result<std::vector<KnnResultEntry>> Query(
      roadnet::EdgePoint location, uint32_t k, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  /// Range variant (an extension beyond the paper): every object within
  /// network distance `radius` of `location`, sorted ascending. The same
  /// pipeline as Query with the fixed radius as the refinement bound — a
  /// kNN query is a range query whose radius shrinks to the kth-best
  /// distance found so far.
  util::Result<std::vector<KnnResultEntry>> QueryRange(
      roadnet::EdgePoint location, roadnet::Distance radius, double t_now,
      KnnStats* stats = nullptr, ExecMode mode = ExecMode::kAuto,
      const QueryControl* control = nullptr);

  const EngineCounters& counters() const { return counters_; }

 private:
  /// Everything one in-flight query mutates on the host: the candidate
  /// region, the GPU_SDist slot list, the bounded Dijkstra used by
  /// refinement and the epoch-stamped vertex maps (dense vertex -> local
  /// id of the SDist region; membership of the refinement seed set).
  /// Leased from `workspaces_` for the duration of a query so concurrent
  /// queries never share scratch state.
  struct QueryWorkspace {
    struct SlotRef {
      CellId cell;
      uint32_t slot;
    };

    explicit QueryWorkspace(const GraphGrid* grid)
        : region(grid->num_cells()),
          search(&grid->graph()),
          local_id_of_vertex(grid->graph().num_vertices(), 0),
          local_id_epoch(grid->graph().num_vertices(), 0),
          seed_epoch_of(grid->graph().num_vertices(), 0) {}

    /// Starts an attempt with an empty region, no SDist labels and no
    /// seeds, whatever the workspace's previous query left behind.
    void BeginAttempt() {
      region.Clear();
      ++query_epoch;
      ++seed_epoch;
    }
    /// Local id of `v` in the SDist region, or kInvalidVertex.
    uint32_t LocalId(roadnet::VertexId v) const {
      return local_id_epoch[v] == query_epoch ? local_id_of_vertex[v]
                                              : roadnet::kInvalidVertex;
    }
    bool IsSeed(roadnet::VertexId v) const {
      return seed_epoch_of[v] == seed_epoch;
    }

    CellRegion region;
    std::vector<SlotRef> slots;
    roadnet::BoundedDijkstra search;
    std::vector<uint32_t> local_id_of_vertex;
    std::vector<uint64_t> local_id_epoch;
    uint64_t query_epoch = 0;
    std::vector<uint64_t> seed_epoch_of;
    uint64_t seed_epoch = 0;
  };

  /// The answer one attempt accumulates (defined in knn_engine.cc).
  class Answer;

  /// The driver of both query kinds: validates, leases a workspace, opens
  /// the trace record, and runs attempts of the pipeline — the GPU attempt
  /// on a scheduler-leased device, the migrate-once retry, the kAuto CPU
  /// fallback — each on a fresh copy of `empty`.
  util::Result<std::vector<KnnResultEntry>> Run(
      roadnet::EdgePoint location, const Answer& empty, double t_now,
      KnnStats* stats, ExecMode mode, const QueryControl* control);

  /// The paper's pipeline into `answer`: candidate cells and message
  /// cleaning, then on `device` (index `device_index` of the set, used to
  /// route cleaning to that device's staging context) GPU_SDist,
  /// GPU_First_k and GPU_Unresolved, then Refine_kNN on the host. A null
  /// `device` is the exact CPU-only path: host cleaning, then the same
  /// refinement seeded at the query edge's target with no SDist region.
  /// Any device error aborts the attempt and propagates. Phase spans
  /// charge into `trace`; the kAuto fallback re-run passes null so its
  /// inner phases are not double counted under the kFallback span.
  util::Status RunPipeline(gpusim::Device* device, uint32_t device_index,
                           roadnet::EdgePoint location, double t_now,
                           Answer& answer, KnnStats& st,
                           obs::QueryTraceRecord* trace, QueryWorkspace& ws,
                           const QueryControl* control);

  gpusim::Scheduler* scheduler_;
  const GraphGrid* grid_;
  MessageCleaner* cleaner_;
  BucketArena* arena_;
  std::vector<MessageList>* lists_;
  const ObjectTable* object_table_;
  const EdgeObjectMap* objects_on_edge_;
  const GGridOptions* options_;

  /// Reusable query workspaces. One is built up front, so the common
  /// single-threaded case never allocates on the query path.
  util::ObjectPool<QueryWorkspace> workspaces_;

  EngineCounters counters_;

  obs::Tracer* tracer_;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_KNN_ENGINE_H_
