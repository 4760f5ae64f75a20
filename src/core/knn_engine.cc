#include "core/knn_engine.h"

#include <algorithm>
#include <limits>

#include "gpusim/device_buffer.h"
#include "gpusim/fault_injector.h"
#include "gpusim/scan.h"
#include "gpusim/topk.h"
#include "util/timer.h"

namespace gknn::core {

using gpusim::DeviceBuffer;
using gpusim::ThreadCtx;
using roadnet::Distance;
using roadnet::Edge;
using roadnet::EdgeId;
using roadnet::EdgePoint;
using roadnet::kInfiniteDistance;
using roadnet::kInvalidVertex;
using roadnet::VertexId;

namespace {

/// A refinement seed: a vertex and its distance from the query.
using Seed = std::pair<VertexId, Distance>;

/// Cooperative cancellation checkpoint (docs/ROBUSTNESS.md "Overload
/// control"): consulted between pipeline phases. Returning the error from
/// a phase boundary lets RAII unwind the workspace lease (and the
/// caller's reader lock) without any phase observing a half-cancelled
/// state.
util::Status CheckBudget(const QueryControl* control, const char* phase) {
  if (control != nullptr && control->deadline.Expired()) {
    return util::Status::DeadlineExceeded(
        std::string("query budget exhausted after ") + phase);
  }
  return util::Status::OK();
}

/// Candidate-ring target: rho*k, shrunk by the brownout rho_scale but
/// never below k itself (a ring smaller than k forces a degenerate
/// all-refinement query).
double RhoK(const GGridOptions& options, uint32_t k,
            const QueryControl* control) {
  double scale = control != nullptr ? control->rho_scale : 1.0;
  if (scale <= 0.0) scale = 1.0;
  const double rho = std::max(1.0, options.rho * scale);
  return rho * static_cast<double>(k);
}

/// Distance from the query straight along its own edge to `offset` on
/// `edge`: finite only ahead of the query on that edge, the one route that
/// does not pass through the edge's target.
Distance AlongEdgeDistance(EdgePoint location, EdgeId edge, uint32_t offset) {
  return edge == location.edge && offset >= location.offset
             ? offset - location.offset
             : kInfiniteDistance;
}

/// Distance from the query to the object of candidate `m`, given the SDist
/// label of its edge's source (kInfiniteDistance outside the region). The
/// GPU_First_k kernel and a range query's host filter share it.
Distance CandidateDistance(EdgePoint location, const Message& m,
                           Distance source_label) {
  const Distance via_source = source_label != kInfiniteDistance
                                  ? source_label + m.offset
                                  : kInfiniteDistance;
  return std::min(via_source, AlongEdgeDistance(location, m.edge, m.offset));
}

/// GPU_Unresolved's predicate, shared by the kernel and a range query's
/// host scan: region vertex `v` is unresolved when its label is below the
/// bound and an out-edge leaves the region, so a closer object could lie
/// beyond it.
bool IsUnresolved(const GraphGrid& grid, const CellRegion& region,
                  VertexId v, Distance label, Distance bound) {
  if (label >= bound) return false;
  const roadnet::Graph& graph = grid.graph();
  for (EdgeId id : graph.OutEdgeIds(v)) {
    if (!region.Contains(grid.CellOfVertex(graph.edge(id).target))) {
      return true;
    }
  }
  return false;
}

/// The device, transfer and simulator clocks of one device (all zero for
/// the CPU path), read before and after an attempt.
struct DeviceClocks {
  gpusim::TransferLedger::Totals ledger;
  double modeled_seconds = 0;
  double sim_wall_seconds = 0;

  static DeviceClocks Read(const gpusim::Device* device) {
    if (device == nullptr) return DeviceClocks{};
    return DeviceClocks{device->ledger().totals(), device->ClockSeconds(),
                        device->sim_wall_seconds()};
  }
};

}  // namespace

/// The answer an attempt accumulates: each offered object's best distance
/// and the radius the refinement searches to. A range answer's radius is
/// fixed and it ignores offers beyond it. A kNN answer's radius is the kth
/// smallest best distance over *distinct* objects — unbounded until k
/// objects are known, then shrinking as closer ones are found — so a kNN
/// query is a range query whose radius is its running kth-best bound.
/// Counting an object once matters: offering one object twice must not
/// tighten the bound.
class KnnEngine::Answer {
 public:
  static Answer Knn(uint32_t k) { return Answer(k, kInfiniteDistance); }
  static Answer Range(Distance radius) { return Answer(0, radius); }

  bool is_knn() const { return k_ > 0; }
  uint32_t k() const { return k_; }
  Distance threshold() const { return threshold_; }

  /// Records `d` as a distance to `object`; returns true when the object
  /// is new to the answer.
  bool Offer(ObjectId object, Distance d) {
    if (!is_knn() && d > threshold_) return false;
    auto [it, inserted] = best_.emplace(object, d);
    if (!inserted) {
      if (d >= it->second) return false;
      if (is_knn()) {
        values_.erase(
            std::lower_bound(values_.begin(), values_.end(), it->second));
      }
      it->second = d;
    }
    if (is_knn()) {
      values_.insert(std::upper_bound(values_.begin(), values_.end(), d), d);
      if (values_.size() >= k_) threshold_ = values_[k_ - 1];
    }
    return inserted;
  }

  /// The answer in KnnResultEntry order, cut to k for kNN.
  std::vector<KnnResultEntry> Take() {
    std::vector<KnnResultEntry> out;
    out.reserve(best_.size());
    for (const auto& [object, d] : best_) out.push_back({object, d});
    const size_t keep =
        is_knn() ? std::min<size_t>(k_, out.size()) : out.size();
    std::partial_sort(out.begin(), out.begin() + keep, out.end());
    out.resize(keep);
    return out;
  }

 private:
  Answer(uint32_t k, Distance threshold) : k_(k), threshold_(threshold) {}

  uint32_t k_;  // 0 for a range answer
  Distance threshold_;
  std::unordered_map<ObjectId, Distance> best_;
  std::vector<Distance> values_;  // kNN: every object's best, ascending
};

KnnEngine::KnnEngine(gpusim::Scheduler* scheduler, obs::Tracer* tracer,
                     const GraphGrid* grid, MessageCleaner* cleaner,
                     BucketArena* arena, std::vector<MessageList>* lists,
                     const ObjectTable* object_table,
                     const EdgeObjectMap* objects_on_edge,
                     const GGridOptions* options)
    : scheduler_(scheduler),
      grid_(grid),
      cleaner_(cleaner),
      arena_(arena),
      lists_(lists),
      object_table_(object_table),
      objects_on_edge_(objects_on_edge),
      options_(options),
      workspaces_([grid] { return std::make_unique<QueryWorkspace>(grid); },
                  /*prebuilt=*/1),
      tracer_(tracer) {}

util::Result<std::vector<KnnResultEntry>> KnnEngine::Query(
    EdgePoint location, uint32_t k, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  if (k == 0) return util::Status::InvalidArgument("k must be positive");
  return Run(location, Answer::Knn(k), t_now, stats, mode, control);
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::QueryRange(
    EdgePoint location, Distance radius, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  return Run(location, Answer::Range(radius), t_now, stats, mode, control);
}

util::Result<std::vector<KnnResultEntry>> KnnEngine::Run(
    EdgePoint location, const Answer& empty, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  const roadnet::Graph& graph = grid_->graph();
  if (location.edge >= graph.num_edges()) {
    return util::Status::InvalidArgument("query edge out of range");
  }
  if (location.offset > graph.edge(location.edge).weight) {
    return util::Status::InvalidArgument("query offset beyond edge weight");
  }
  GKNN_RETURN_NOT_OK(CheckBudget(control, "admission"));

  util::ObjectPool<QueryWorkspace>::Lease ws = workspaces_.Acquire();

  KnnStats local_stats;
  KnnStats* st = stats != nullptr ? stats : &local_stats;
  obs::QueryTraceRecord record;
  record.query_id = tracer_->NextQueryId();
  record.t_query = t_now;
  record.k = empty.k();
  record.range = !empty.is_knn();
  record.exec_mode = static_cast<uint8_t>(mode);
  obs::Span total = tracer_->StartTotal(&record);
  auto finish = [&](util::Result<std::vector<KnnResultEntry>> result) {
    total.Stop();
    st->query_id = record.query_id;
    record.ok = result.ok();
    record.results = result.ok() ? static_cast<uint32_t>(result->size()) : 0;
    record.cpu_fallback = st->cpu_fallback;
    record.cells_examined = st->cells_examined;
    tracer_->FinishQuery(std::move(record));
    return result;
  };
  // One attempt on `device` (null: the CPU-only path), on a fresh answer.
  auto attempt = [&](gpusim::Device* device, uint32_t device_index,
                     obs::QueryTraceRecord* attempt_trace)
      -> util::Result<std::vector<KnnResultEntry>> {
    Answer answer = empty;
    GKNN_RETURN_NOT_OK(RunPipeline(device, device_index, location, t_now,
                                   answer, *st, attempt_trace, *ws, control));
    return answer.Take();
  };

  if (mode == ExecMode::kCpuOnly) {
    ++counters_.cpu_queries;
    return finish(attempt(nullptr, 0, &record));
  }
  // One GPU attempt: lease a device from the scheduler, run the pipeline
  // there, and feed the outcome back into the scheduler's health tracking.
  // The lease spans only the attempt — a stream slot, not a query-lifetime
  // claim.
  uint32_t last_device = 0;
  auto gpu_attempt =
      [&](bool avoid_last) -> util::Result<std::vector<KnnResultEntry>> {
    gpusim::Scheduler::Lease sched_lease =
        avoid_last ? scheduler_->AcquireAvoiding(last_device)
                   : scheduler_->Acquire();
    last_device = sched_lease.device_index();
    util::Result<std::vector<KnnResultEntry>> r =
        attempt(sched_lease.device(), sched_lease.device_index(), &record);
    scheduler_->ReportResult(sched_lease.device_index(),
                             !r.ok() && gpusim::IsDeviceError(r.status()));
    return r;
  };
  util::Result<std::vector<KnnResultEntry>> result =
      gpu_attempt(/*avoid_last=*/false);
  // DeadlineExceeded is not a device error, so a budget abort propagates
  // here instead of burning the remaining (already negative) budget on a
  // CPU re-run.
  if (!result.ok() && gpusim::IsDeviceError(result.status())) {
    ++counters_.gpu_failures;
    ++record.fault_events;
    if (mode == ExecMode::kAuto && scheduler_->num_devices() > 1) {
      // Migrate once: re-run on a different device of the set before
      // surrendering the query to the CPU path. One failed fault domain
      // then costs a retry, not the GPU acceleration.
      result = gpu_attempt(/*avoid_last=*/true);
      if (result.ok()) {
        ++counters_.migrated_queries;
      } else if (gpusim::IsDeviceError(result.status())) {
        ++counters_.gpu_failures;
        ++record.fault_events;
      }
    }
    if (!result.ok() && gpusim::IsDeviceError(result.status()) &&
        mode == ExecMode::kAuto) {
      ++counters_.fallback_queries;
      // The re-run traces as one kFallback phase; its inner phases get a
      // null record so the fallback span alone accounts for the time.
      obs::Span fallback = tracer_->StartSpan(&record, obs::Phase::kFallback);
      result = attempt(nullptr, 0, nullptr);
      fallback.Stop();
    }
  }
  return finish(std::move(result));
}

util::Status KnnEngine::RunPipeline(gpusim::Device* device,
                                    uint32_t device_index, EdgePoint location,
                                    double t_now, Answer& answer,
                                    KnnStats& st,
                                    obs::QueryTraceRecord* trace,
                                    QueryWorkspace& ws,
                                    const QueryControl* control) {
  const roadnet::Graph& graph = grid_->graph();
  const Edge& query_edge = graph.edge(location.edge);
  const bool on_gpu = device != nullptr;
  const util::Deadline* deadline =
      control != nullptr ? &control->deadline : nullptr;

  st = KnnStats{};
  st.cpu_fallback = !on_gpu;
  // Fresh region, labels and seeds: a CPU attempt must not prune its
  // refinement against the SDist labels of this workspace's last query.
  ws.BeginAttempt();
  const DeviceClocks clocks_before = DeviceClocks::Read(device);
  util::Timer cpu_timer;

  // ---- Step 1 (Alg. 4 lines 1-4): candidate cells + message cleaning -----
  // A kNN query on the GPU grows rings until the region holds rho*k
  // candidates; a range query and the CPU path clean the initial region
  // only (everything beyond it is reached by the refinement).
  CellRegion& region = ws.region;
  obs::Span expand_span =
      tracer_->StartSpan(on_gpu ? trace : nullptr, obs::Phase::kExpand);
  region.AddInitial(*grid_, location.edge);
  expand_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "expand"));

  std::vector<Message> candidates;
  const double rho_k =
      on_gpu && answer.is_knn() ? RhoK(*options_, answer.k(), control) : 0.0;
  size_t clean_from = 0;  // cells in region[clean_from..) not yet cleaned
  for (;;) {
    const size_t ring_from = clean_from;
    const std::span<const CellId> to_clean(region.cells().data() + clean_from,
                                           region.size() - clean_from);
    clean_from = region.size();
    obs::Span clean_span = tracer_->StartSpan(trace, obs::Phase::kClean);
    GKNN_ASSIGN_OR_RETURN(
        MessageCleaner::Outcome outcome,
        on_gpu ? cleaner_->Clean(to_clean, t_now, arena_, lists_,
                                 device_index, deadline)
               : cleaner_->CleanCpu(to_clean, t_now, arena_, lists_));
    clean_span.Stop();
    if (trace != nullptr) {
      trace->cells_cleaned += outcome.cells_cleaned;
      if (on_gpu) {
        trace->messages_shipped += outcome.messages_shipped;
        if (outcome.messages_shipped > outcome.latest.size()) {
          trace->messages_deduped += static_cast<uint32_t>(
              outcome.messages_shipped - outcome.latest.size());
        }
      }
    }
    st.clean_pipeline_seconds += outcome.pipeline_seconds;
    candidates.insert(candidates.end(), outcome.latest.begin(),
                      outcome.latest.end());
    // Per-iteration checkpoint: the clean/expand loop is the unbounded
    // part of the pipeline (it can grow to the whole grid), so the budget
    // is enforced every ring.
    GKNN_RETURN_NOT_OK(CheckBudget(control, "clean"));
    if (static_cast<double>(candidates.size()) >= rho_k) break;
    // Expand one ring: neighbors(L) \ L. Only the previous ring can
    // contribute new neighbors.
    obs::Span ring_span = tracer_->StartSpan(trace, obs::Phase::kExpand);
    if (!region.AddRing(*grid_, ring_from)) break;  // whole grid covered
    ++st.expansion_rounds;
  }
  st.cells_examined = static_cast<uint32_t>(region.size());
  st.candidate_objects = static_cast<uint32_t>(candidates.size());

  // The refinement's seeds and, on the GPU, the SDist labels its prune
  // reads. The CPU path has no SDist region: its one seed is the query
  // edge's target, every route but the along-edge one passing through it.
  std::vector<Seed> seeds;
  DeviceBuffer<Distance> device_dist;
  std::span<const Distance> sdist;
  if (on_gpu) {
    // ---- Step 2a (Alg. 5): GPU_SDist over the candidate cells' vertices -
    obs::Span sdist_span = tracer_->StartSpan(trace, obs::Phase::kSdist);
    std::vector<VertexId> region_vertices;
    for (CellId c : region.cells()) {
      grid_->AppendCellVertices(c, &region_vertices);
    }
    st.candidate_vertices = static_cast<uint32_t>(region_vertices.size());
    for (uint32_t i = 0; i < region_vertices.size(); ++i) {
      ws.local_id_of_vertex[region_vertices[i]] = i;
      ws.local_id_epoch[region_vertices[i]] = ws.query_epoch;
    }
    GKNN_ASSIGN_OR_RETURN(device_dist,
                          DeviceBuffer<Distance>::Allocate(
                              device, region_vertices.size(), "D"));
    {
      std::vector<Distance> init(region_vertices.size(), kInfiniteDistance);
      const uint32_t seed = ws.LocalId(query_edge.target);
      if (seed != kInvalidVertex) {
        init[seed] = query_edge.weight - location.offset;
      }
      GKNN_RETURN_NOT_OK(device_dist.Upload(init).status());
    }
    // gknn-lint: allow(device-span): host reads D only after the kernels
    // complete; in-kernel accesses go through the checked Load/AtomicMin.
    sdist = device_dist.device_span();

    // One thread per vertex entry (real or virtual); each relaxes the
    // delta_v in-edges it stores, with a device-wide barrier per round.
    // Distinct threads can touch the same D entry within a round — a
    // virtual continuation slot shares its destination vertex with the
    // real entry, and every thread reads the labels of its sources while
    // their owners rewrite them — so the relaxation lowers D through
    // AtomicMin, exactly like a real CUDA Bellman-Ford kernel. The plain
    // Load of a source label beside those atomics reads some settled value
    // of the round; either value keeps the label an upper bound that the
    // fixpoint iteration finishes off.
    ws.slots.clear();
    for (CellId c : region.cells()) {
      for (uint32_t i = 0; i < grid_->NumSlots(c); ++i) {
        ws.slots.push_back(QueryWorkspace::SlotRef{c, i});
      }
    }
    GKNN_ASSIGN_OR_RETURN(
        const auto sdist_stats,
        device->LaunchIterative(
            "GPU_SDist", static_cast<uint32_t>(ws.slots.size()),
            /*max_iters=*/std::max<uint32_t>(1, st.candidate_vertices),
            options_->sdist_early_exit,
            [this, &ws, &device_dist](ThreadCtx& ctx, uint32_t) {
              const QueryWorkspace::SlotRef ref = ws.slots[ctx.thread_id];
              const GraphGrid::VertexSlot& slot =
                  grid_->Slot(ref.cell, ref.slot);
              bool changed = false;
              if (!slot.empty()) {
                const uint32_t self = ws.LocalId(slot.vertex);
                for (const GraphGrid::EdgeEntry& e :
                     grid_->SlotEdges(ref.cell, ref.slot)) {
                  const uint32_t src = ws.LocalId(e.source);
                  if (src == kInvalidVertex) continue;  // edge from outside L
                  const Distance d = device_dist.Load(ctx, src);
                  if (d != kInfiniteDistance &&
                      device_dist.AtomicMin(ctx, self, d + e.weight) >
                          d + e.weight) {
                    changed = true;
                  }
                }
              }
              ctx.CountOps(grid_->delta_v());
              return changed;
            }));
    st.sdist_iterations = sdist_stats.iterations;
    sdist_span.Stop();
    GKNN_RETURN_NOT_OK(CheckBudget(control, "sdist"));

    // ---- Step 2b: candidate distances; GPU_First_k selects kNN's k -----
    obs::Span topk_span = tracer_->StartSpan(trace, obs::Phase::kTopk);
    if (answer.is_knn() && !candidates.empty()) {
      // Per-candidate distance entries, computed and selected on the
      // device. Ties break by object id before buffer position, so the
      // selected *objects* do not depend on the order cleaning emitted
      // the candidates in — a concurrent run and its single-threaded
      // replay pick the same winners. Candidates beyond the k winners
      // cannot enter the answer: k candidates at or below their distance
      // exist, and refinement finds any closer path to them on its own.
      struct DistEntry {
        Distance distance = kInfiniteDistance;
        ObjectId object = std::numeric_limits<ObjectId>::max();
        uint32_t index = std::numeric_limits<uint32_t>::max();
        bool operator<(const DistEntry& other) const {
          if (distance != other.distance) return distance < other.distance;
          if (object != other.object) return object < other.object;
          return index < other.index;
        }
      };
      GKNN_ASSIGN_OR_RETURN(auto device_entries,
                            DeviceBuffer<DistEntry>::Allocate(
                                device, candidates.size(), "entries"));
      // gknn-lint: allow(device-span): handed to gpusim::TopKSmallest,
      // which performs its own checked accesses.
      auto entry_span = device_entries.device_span();
      GKNN_RETURN_NOT_OK(
          device
              ->Launch("GPU_First_k/distances",
                       static_cast<uint32_t>(candidates.size()),
                       [&candidates, &device_entries, &graph, &ws,
                        &device_dist, location](ThreadCtx& ctx) {
                         const Message& m = candidates[ctx.thread_id];
                         const uint32_t src =
                             ws.LocalId(graph.edge(m.edge).source);
                         const Distance label =
                             src != kInvalidVertex
                                 ? device_dist.Load(ctx, src)
                                 : kInfiniteDistance;
                         device_entries.Store(
                             ctx, ctx.thread_id,
                             DistEntry{CandidateDistance(location, m, label),
                                       m.object, ctx.thread_id});
                         ctx.CountOps(2);
                       })
              .status());
      // GPU_First_k: warp-bitonic k-smallest selection on the device; the
      // k winners come back to the host (charged inside TopKSmallest).
      GKNN_ASSIGN_OR_RETURN(const auto selected,
                            gpusim::TopKSmallest<DistEntry>(
                                device, entry_span, answer.k(), DistEntry{}));
      for (const DistEntry& e : selected) {
        if (e.distance != kInfiniteDistance) {
          answer.Offer(candidates[e.index].object, e.distance);
        }
      }
    } else if (!answer.is_knn()) {
      // A range query keeps every candidate within its radius: one host
      // pass over the labels, no selection.
      for (const Message& m : candidates) {
        const uint32_t src = ws.LocalId(graph.edge(m.edge).source);
        answer.Offer(m.object,
                     CandidateDistance(location, m,
                                       src != kInvalidVertex
                                           ? sdist[src]
                                           : kInfiniteDistance));
      }
    }
    topk_span.Stop();
    GKNN_RETURN_NOT_OK(CheckBudget(control, "topk"));

    // ---- Step 2c: GPU_Unresolved — boundary vertices below the bound ---
    obs::Span unresolved_span =
        tracer_->StartSpan(trace, obs::Phase::kUnresolved);
    const Distance bound = answer.threshold();
    if (answer.is_knn()) {
      // Stream compaction on the device: flag kernel -> exclusive scan ->
      // scatter kernel, then one copy of the compacted set to the host.
      const uint32_t n = static_cast<uint32_t>(region_vertices.size());
      auto is_unresolved = [this, &region, &region_vertices, &device_dist,
                            bound](ThreadCtx& ctx, uint32_t i) {
        return IsUnresolved(*grid_, region, region_vertices[i],
                            device_dist.Load(ctx, i), bound);
      };
      GKNN_ASSIGN_OR_RETURN(
          auto flags, DeviceBuffer<uint32_t>::Allocate(device, n, "flags"));
      // gknn-lint: allow(device-span): handed to gpusim::ExclusiveScan,
      // which performs its own checked accesses.
      auto flag_span = flags.device_span();
      GKNN_RETURN_NOT_OK(
          device
              ->Launch("GPU_Unresolved/flag", n,
                       [&flags, &is_unresolved, &graph,
                        &region_vertices](ThreadCtx& ctx) {
                         flags.Store(ctx, ctx.thread_id,
                                     is_unresolved(ctx, ctx.thread_id) ? 1
                                                                       : 0);
                         ctx.CountOps(1 + graph.OutDegree(
                                              region_vertices[ctx.thread_id]));
                       })
              .status());
      GKNN_ASSIGN_OR_RETURN(const uint32_t total,
                            gpusim::ExclusiveScan(device, flag_span));
      if (total > 0) {
        GKNN_ASSIGN_OR_RETURN(
            auto compacted,
            DeviceBuffer<Seed>::Allocate(device, total, "unresolved"));
        GKNN_RETURN_NOT_OK(
            device
                ->Launch("GPU_Unresolved/scatter", n,
                         [&is_unresolved, &compacted, &flags,
                          &region_vertices, &device_dist](ThreadCtx& ctx) {
                           ctx.CountOps(1);
                           if (is_unresolved(ctx, ctx.thread_id)) {
                             compacted.Store(
                                 ctx, flags.Load(ctx, ctx.thread_id),
                                 Seed{region_vertices[ctx.thread_id],
                                      device_dist.Load(ctx, ctx.thread_id)});
                           }
                         })
                .status());
        GKNN_ASSIGN_OR_RETURN(seeds, compacted.Download());
      }
    } else {
      // A range query scans on the host, as it filtered its candidates.
      for (uint32_t i = 0; i < region_vertices.size(); ++i) {
        if (IsUnresolved(*grid_, region, region_vertices[i], sdist[i],
                         bound)) {
          seeds.emplace_back(region_vertices[i], sdist[i]);
        }
      }
    }
    st.unresolved_vertices = static_cast<uint32_t>(seeds.size());
    // Mark the seeds so the refinement prune below can recognize them.
    for (const Seed& seed : seeds) {
      ws.seed_epoch_of[seed.first] = ws.seed_epoch;
    }
    unresolved_span.Stop();
    GKNN_RETURN_NOT_OK(CheckBudget(control, "unresolved"));
  }

  // ---- Step 3 (Alg. 6): Refine_kNN on the host ---------------------------
  obs::Span refine_span = tracer_->StartSpan(trace, obs::Phase::kRefine);
  if (!on_gpu) {
    // The CPU path's candidate step: objects ahead of the query on its own
    // edge, whose direct route does not pass through the seed.
    if (auto it = objects_on_edge_->find(location.edge);
        it != objects_on_edge_->end()) {
      for (ObjectId o : it->second) {
        const ObjectTable::Entry* entry = object_table_->Find(o);
        if (entry == nullptr) continue;
        const Distance d = AlongEdgeDistance(location, entry->edge,
                                             entry->offset);
        if (d != kInfiniteDistance) answer.Offer(o, d);
      }
    }
    seeds.emplace_back(query_edge.target, query_edge.weight - location.offset);
  }
  if (!seeds.empty()) {
    // One multi-source bounded Dijkstra over all seeds, each at its
    // already-known distance. Equivalent to the paper's per-vertex
    // searches of radius l - D[v] (both settle exactly the locations
    // within absolute distance l through some unresolved vertex) but
    // shares the work their overlapping ranges would repeat, and settles
    // vertices in one deterministic priority order — so a concurrent run
    // and its single-threaded replay find the same objects. The radius is
    // the answer's threshold: fixed for range, and for kNN the running
    // kth-best bound, tightening as refinement finds closer objects.
    roadnet::BoundedDijkstra& search = ws.search;
    search.set_deadline(deadline);
    search.BeginSearch();
    for (const auto& [v, dv] : seeds) search.SeedMore(v, dv);
    search.SearchPrunedDynamic(
        [&answer]() -> Distance { return answer.threshold(); },
        [&](VertexId x, Distance dx) {
          for (EdgeId id : graph.OutEdgeIds(x)) {
            auto it = objects_on_edge_->find(id);
            if (it == objects_on_edge_->end()) continue;
            for (ObjectId o : it->second) {
              const ObjectTable::Entry* entry = object_table_->Find(o);
              if (entry == nullptr || entry->edge != id) continue;
              if (answer.Offer(o, dx + entry->offset)) ++st.refined_objects;
            }
          }
          // Prune: a non-seed region vertex settled at >= its SDist label
          // adds nothing — its in-region continuations were already
          // relaxed by GPU_SDist, and any out-of-region edge would have
          // made it an unresolved seed itself (or its label is >= l,
          // beyond the radius). Seeds always expand: they are the gateways
          // out of the region. The CPU path has no region, so nothing is
          // pruned.
          const uint32_t lx = ws.LocalId(x);
          return lx == kInvalidVertex || ws.IsSeed(x) || dx < sdist[lx];
        });
  }
  refine_span.Stop();
  GKNN_RETURN_NOT_OK(CheckBudget(control, "refine"));

  const DeviceClocks clocks_after = DeviceClocks::Read(device);
  st.h2d_bytes = clocks_after.ledger.h2d_bytes - clocks_before.ledger.h2d_bytes;
  st.d2h_bytes = clocks_after.ledger.d2h_bytes - clocks_before.ledger.d2h_bytes;
  st.transfer_seconds = clocks_after.ledger.total_seconds() -
                        clocks_before.ledger.total_seconds();
  st.gpu_seconds = clocks_after.modeled_seconds - clocks_before.modeled_seconds;
  // Host time excludes the wall clock the simulator spent executing
  // kernels functionally — that work runs on the device in a real
  // deployment and is billed through gpu_seconds. Under concurrent
  // queries the ledger and clock deltas fold in any overlapping query's
  // device work; exact per-query attribution needs a quiesced device.
  st.cpu_seconds =
      std::max(0.0, cpu_timer.ElapsedSeconds() -
                        (clocks_after.sim_wall_seconds -
                         clocks_before.sim_wall_seconds));
  return util::Status::OK();
}

}  // namespace gknn::core
