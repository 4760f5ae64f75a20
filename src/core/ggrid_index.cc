#include "core/ggrid_index.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "gpusim/fault_injector.h"
#include "util/logging.h"

namespace gknn::core {

using roadnet::EdgePoint;

GGridIndex::GGridIndex(const roadnet::Graph* graph,
                       const GGridOptions& options,
                       gpusim::DeviceSet* devices)
    : graph_(graph),
      options_(options),
      devices_(devices),
      arena_(options.delta_b),
      tracer_(&registry_, options.obs_clock, options.trace_ring_capacity),
      updates_total_(registry_.GetCounter("gknn_updates_ingested_total")),
      tombstones_total_(registry_.GetCounter("gknn_tombstones_total")),
      clean_fallbacks_total_(
          registry_.GetCounter("gknn_clean_fallbacks_total")) {}

util::Result<std::unique_ptr<GGridIndex>> GGridIndex::Build(
    const roadnet::Graph* graph, const GGridOptions& options,
    gpusim::Device* device) {
  auto owned = std::make_unique<gpusim::DeviceSet>(
      std::vector<gpusim::Device*>{device});
  GKNN_ASSIGN_OR_RETURN(std::unique_ptr<GGridIndex> index,
                        Build(graph, options, owned.get()));
  index->owned_set_ = std::move(owned);
  return index;
}

util::Result<std::unique_ptr<GGridIndex>> GGridIndex::Build(
    const roadnet::Graph* graph, const GGridOptions& options,
    gpusim::DeviceSet* devices) {
  GKNN_RETURN_NOT_OK(ValidateOptions(options));  // before partitioning
  GKNN_ASSIGN_OR_RETURN(
      GraphGrid grid, GraphGrid::Build(graph, options.delta_c, options.delta_v,
                                       options.partition));
  GKNN_ASSIGN_OR_RETURN(
      std::unique_ptr<GGridIndex> index,
      Build(std::make_shared<const GraphGrid>(std::move(grid)), options,
            devices));
  index->counts_host_grid_ = true;
  return index;
}

util::Status GGridIndex::ValidateOptions(const GGridOptions& options) {
  if (options.delta_b == 0) {
    return util::Status::InvalidArgument("delta_b must be positive");
  }
  if (options.eta > 10) {
    return util::Status::InvalidArgument("eta must be at most 10");
  }
  if (options.rho < 1.0) {
    return util::Status::InvalidArgument("rho must be at least 1");
  }
  return util::Status::OK();
}

util::Result<std::unique_ptr<GGridIndex>> GGridIndex::Build(
    std::shared_ptr<const GraphGrid> grid, const GGridOptions& options,
    gpusim::DeviceSet* devices) {
  GKNN_RETURN_NOT_OK(ValidateOptions(options));
  std::unique_ptr<GGridIndex> index(
      new GGridIndex(&grid->graph(), options, devices));
  index->grid_ = std::move(grid);
  index->lists_.resize(index->grid_->num_cells());

  // The paper keeps an identical copy of the graph grid in GPU memory
  // (§III-A); with several devices, every device holds its own replica so
  // any of them can serve any cell. The simulated kernels read the host
  // arrays directly, so each copy is modeled as an allocation of the same
  // size plus its one-time upload — which makes Fig. 6's "G-Grid (GPU)"
  // bar and the initial transfer cost real in each device's ledger. The
  // mirrors are accounting only, so a device error here degrades the size
  // report rather than failing the build: the index still answers every
  // query (via another device or the CPU path if a device stays down).
  for (uint32_t i = 0; i < devices->size(); ++i) {
    gpusim::Device* device = devices->device_ptr(i);
    auto mirror = gpusim::DeviceBuffer<uint8_t>::Allocate(
        device, index->grid_->MemoryBytes());
    if (mirror.ok()) {
      index->grid_gpu_copies_.push_back(std::move(mirror).ValueOrDie());
      device->ledger().RecordH2D(index->grid_->MemoryBytes(),
                                 device->config());
    } else if (gpusim::IsDeviceError(mirror.status())) {
      GKNN_LOG(Warning) << "grid GPU mirror unavailable on device " << i
                        << ": " << mirror.status().ToString();
    } else {
      return mirror.status();
    }
  }

  MessageCleaner::Options cleaner_options;
  cleaner_options.delta_b = options.delta_b;
  cleaner_options.eta = options.eta;
  cleaner_options.t_delta = options.t_delta;
  cleaner_options.transfer_chunk_buckets = options.transfer_chunk_buckets;
  cleaner_options.use_x_shuffle = options.use_x_shuffle;
  cleaner_options.pipelined_transfer = options.pipelined_transfer;
  index->cleaner_ =
      std::make_unique<MessageCleaner>(devices, cleaner_options);
  index->cleaner_->SetMetricRegistry(&index->registry_);

  index->scheduler_ = std::make_unique<gpusim::Scheduler>(devices);

  index->engine_ = std::make_unique<KnnEngine>(
      index->scheduler_.get(), &index->tracer_, index->grid_.get(),
      index->cleaner_.get(), &index->arena_, &index->lists_,
      &index->object_table_, &index->objects_on_edge_, &index->options_);
  return index;
}

util::Status GGridIndex::Ingest(ObjectId object, EdgePoint position,
                                double time) {
  if (position.edge >= graph_->num_edges()) {
    return util::Status::InvalidArgument("update edge out of range");
  }
  if (position.offset > graph_->edge(position.edge).weight) {
    return util::Status::InvalidArgument("update offset beyond edge weight");
  }

  // Algorithm 1 line 1-2: append m to the list of its cell.
  const CellId cell = grid_->CellOfEdge(position.edge);
  Message m;
  m.object = object;
  m.edge = position.edge;
  m.offset = position.offset;
  m.time = time;
  m.cell = cell;
  // Two sequence numbers per ingest: the tombstone (if any) takes the lower
  // one so the real message always wins the newest-message race.
  const uint64_t tombstone_seq = next_seq_++;
  m.seq = next_seq_++;
  lists_[cell].Append(&arena_, m);

  // Algorithm 1 lines 3-5: if the object moved in from another cell,
  // append a departure tombstone <o, null, null, t> there. The previous
  // entry is copied by value: setOT below overwrites it in place.
  const ObjectTable::Entry* previous_ptr = object_table_.Find(object);
  const bool has_previous = previous_ptr != nullptr;
  const ObjectTable::Entry previous =
      has_previous ? *previous_ptr : ObjectTable::Entry{};
  if (has_previous && previous.cell != cell) {
    Message tombstone;
    tombstone.object = object;
    tombstone.edge = roadnet::kInvalidEdge;
    tombstone.offset = 0;
    tombstone.time = time;
    tombstone.seq = tombstone_seq;
    tombstone.cell = previous.cell;
    lists_[previous.cell].Append(&arena_, tombstone);
    ++counters_.tombstones_written;
    tombstones_total_->Increment();
  }

  // Maintain the eager edge->objects registry used by Refine_kNN.
  if (has_previous && previous.edge != position.edge) {
    auto it = objects_on_edge_.find(previous.edge);
    if (it != objects_on_edge_.end()) {
      auto& vec = it->second;
      vec.erase(std::remove(vec.begin(), vec.end(), object), vec.end());
      if (vec.empty()) objects_on_edge_.erase(it);
    }
  }
  if (!has_previous || previous.edge != position.edge) {
    objects_on_edge_[position.edge].push_back(object);
  }

  // Algorithm 1 line 6: setOT(m.o, <c, m.e, m.d>).
  object_table_.Set(object, ObjectTable::Entry{cell, position.edge,
                                               position.offset, time, m.seq});
  ++counters_.updates_ingested;
  updates_total_->Increment();

  if (options_.eager_updates) {
    // Ablation mode: enforce the update on the index immediately, like the
    // eager schemes of prior work — cleaning the touched cell (and the
    // departed cell) on every single message.
    std::vector<CellId> touched = {cell};
    if (has_previous && previous.cell != cell) {
      touched.push_back(previous.cell);
    }
    return CleanCells(touched, time);
  }
  return util::Status::OK();
}

util::Status GGridIndex::Remove(ObjectId object, double time) {
  const ObjectTable::Entry* entry = object_table_.Find(object);
  if (entry == nullptr) return util::Status::OK();
  Message tombstone;
  tombstone.object = object;
  tombstone.edge = roadnet::kInvalidEdge;
  tombstone.time = time;
  tombstone.seq = next_seq_++;
  tombstone.cell = entry->cell;
  lists_[entry->cell].Append(&arena_, tombstone);
  ++counters_.tombstones_written;
  tombstones_total_->Increment();

  auto it = objects_on_edge_.find(entry->edge);
  if (it != objects_on_edge_.end()) {
    auto& vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), object), vec.end());
    if (vec.empty()) objects_on_edge_.erase(it);
  }
  const CellId cell = entry->cell;
  object_table_.Erase(object);
  if (options_.eager_updates) {
    const CellId touched[] = {cell};
    return CleanCells(touched, time);
  }
  return util::Status::OK();
}

util::Status GGridIndex::TrimCaches(double t_now) {
  std::vector<CellId> occupied;
  for (CellId c = 0; c < static_cast<CellId>(lists_.size()); ++c) {
    if (lists_[c].num_messages() > 0) occupied.push_back(c);
  }
  return CleanCells(occupied, t_now);
}

util::Status GGridIndex::SaveSnapshot(const std::string& path,
                                      double t_now) {
  GKNN_RETURN_NOT_OK(TrimCaches(t_now));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return util::Status::IoError("cannot open " + path + " for writing");
  }
  std::fprintf(f, "gknn-snapshot v1 %u %u\n", graph_->num_vertices(),
               graph_->num_edges());
  for (const auto& [object, entry] : object_table_) {
    std::fprintf(f, "%u %u %u %.6f\n", object, entry.edge, entry.offset,
                 entry.time);
  }
  if (std::fclose(f) != 0) {
    return util::Status::IoError("error closing " + path);
  }
  return util::Status::OK();
}

util::Status GGridIndex::LoadSnapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return util::Status::IoError("cannot open " + path);
  }
  unsigned vertices = 0, edges = 0;
  if (std::fscanf(f, "gknn-snapshot v1 %u %u\n", &vertices, &edges) != 2 ||
      vertices != graph_->num_vertices() || edges != graph_->num_edges()) {
    std::fclose(f);
    return util::Status::InvalidArgument(
        path + ": snapshot does not match this graph");
  }
  unsigned object = 0, edge = 0, offset = 0;
  double time = 0;
  int fields;
  while ((fields = std::fscanf(f, "%u %u %u %lf\n", &object, &edge, &offset,
                               &time)) == 4) {
    if (edge >= graph_->num_edges() ||
        offset > graph_->edge(edge).weight) {
      std::fclose(f);
      return util::Status::IoError(path + ": snapshot entry off the network");
    }
    const util::Status ingested = Ingest(object, {edge, offset}, time);
    if (!ingested.ok()) {
      std::fclose(f);
      return ingested;
    }
  }
  std::fclose(f);
  if (fields != EOF) {
    return util::Status::IoError(path + ": malformed snapshot entry");
  }
  return util::Status::OK();
}

util::Result<std::vector<std::vector<KnnResultEntry>>>
GGridIndex::QueryKnnBatch(std::span<const roadnet::EdgePoint> locations,
                          uint32_t k, double t_now,
                          KnnStats* aggregate_stats, ExecMode mode) {
  // Shared pass: clean the union of every query's initial region in one
  // batch (one pipelined transfer + kernel sequence), so per-query
  // cleaning afterwards touches already-compacted lists.
  CellRegion union_region(grid_->num_cells());
  for (const roadnet::EdgePoint& q : locations) {
    if (q.edge >= graph_->num_edges()) {
      return util::Status::InvalidArgument("query edge out of range");
    }
    union_region.AddInitial(*grid_, q.edge);
  }
  GKNN_RETURN_NOT_OK(CleanCells(union_region.cells(), t_now));

  std::vector<std::vector<KnnResultEntry>> results;
  results.reserve(locations.size());
  KnnStats aggregate;
  for (const roadnet::EdgePoint& q : locations) {
    KnnStats stats;
    GKNN_ASSIGN_OR_RETURN(auto result,
                          engine_->Query(q, k, t_now, &stats, mode));
    ++counters_.queries_processed;
    aggregate.cells_examined += stats.cells_examined;
    aggregate.candidate_objects += stats.candidate_objects;
    aggregate.unresolved_vertices += stats.unresolved_vertices;
    aggregate.refined_objects += stats.refined_objects;
    aggregate.clean_pipeline_seconds += stats.clean_pipeline_seconds;
    aggregate.gpu_seconds += stats.gpu_seconds;
    aggregate.cpu_seconds += stats.cpu_seconds;
    aggregate.h2d_bytes += stats.h2d_bytes;
    aggregate.d2h_bytes += stats.d2h_bytes;
    aggregate.transfer_seconds += stats.transfer_seconds;
    results.push_back(std::move(result));
  }
  if (aggregate_stats != nullptr) *aggregate_stats = aggregate;
  return results;
}

util::Status GGridIndex::CleanCells(std::span<const CellId> cells,
                                    double t_now) {
  gpusim::Scheduler::Lease lease = scheduler_->Acquire();
  util::Result<MessageCleaner::Outcome> outcome =
      cleaner_->Clean(cells, t_now, &arena_, &lists_, lease.device_index());
  bool device_error =
      !outcome.ok() && gpusim::IsDeviceError(outcome.status());
  scheduler_->ReportResult(lease.device_index(), device_error);
  if (device_error && devices_->size() > 1) {
    // Migrate the batch once to a different device before surrendering it
    // to the host path (the failed pass rolled back transactionally).
    gpusim::Scheduler::Lease retry =
        scheduler_->AcquireAvoiding(lease.device_index());
    outcome =
        cleaner_->Clean(cells, t_now, &arena_, &lists_, retry.device_index());
    device_error = !outcome.ok() && gpusim::IsDeviceError(outcome.status());
    scheduler_->ReportResult(retry.device_index(), device_error);
  }
  if (device_error) {
    // The failed GPU pass rolled back transactionally, so the host pass
    // sees every message it saw.
    ++counters_.clean_fallbacks;
    clean_fallbacks_total_->Increment();
    outcome = cleaner_->CleanCpu(cells, t_now, &arena_, &lists_);
  }
  return outcome.status();
}

util::Result<std::vector<KnnResultEntry>> GGridIndex::QueryKnn(
    EdgePoint location, uint32_t k, double t_now, KnnStats* stats,
    ExecMode mode, const QueryControl* control) {
  ++counters_.queries_processed;
  return engine_->Query(location, k, t_now, stats, mode, control);
}

util::Result<std::vector<KnnResultEntry>> GGridIndex::QueryRange(
    EdgePoint location, roadnet::Distance radius, double t_now,
    KnnStats* stats, ExecMode mode, const QueryControl* control) {
  ++counters_.queries_processed;
  return engine_->QueryRange(location, radius, t_now, stats, mode, control);
}

uint64_t GGridIndex::cached_messages() const {
  uint64_t total = 0;
  for (const MessageList& list : lists_) total += list.num_messages();
  return total;
}

void GGridIndex::FoldDeviceMetrics() {
  if (!obs::kEnabled) return;
  auto set = [&](std::string_view name, double value) {
    registry_.GetGauge(name)->Set(value);
  };
  // Device totals and the transfer ledger. The unlabelled series is always
  // the sum over every device of the set — at one device it is exactly
  // that device's value, so single-device expositions are unchanged. With
  // more than one device each gauge also appears per device under a
  // `device="i"` label (no labels leak at N=1).
  const uint32_t n_devices = devices_->size();
  auto fold_device = [&](std::string_view suffix, gpusim::Device& dev) {
    auto set_dev = [&](std::string_view name, double value) {
      registry_.GetGauge(std::string(name) + std::string(suffix))
          ->Set(value);
    };
    set_dev("gknn_device_clock_seconds", dev.ClockSeconds());
    set_dev("gknn_device_kernel_launches",
            static_cast<double>(dev.kernel_launches()));
    set_dev("gknn_device_sim_wall_seconds", dev.sim_wall_seconds());
    set_dev("gknn_device_bytes_allocated",
            static_cast<double>(dev.bytes_allocated()));
    set_dev("gknn_device_peak_bytes", static_cast<double>(dev.peak_bytes()));
    set_dev("gknn_device_hazards", static_cast<double>(dev.hazard_count()));
    const gpusim::TransferLedger::Totals totals = dev.ledger().totals();
    set_dev("gknn_transfer_h2d_bytes", static_cast<double>(totals.h2d_bytes));
    set_dev("gknn_transfer_d2h_bytes", static_cast<double>(totals.d2h_bytes));
    set_dev("gknn_transfer_h2d_count", static_cast<double>(totals.h2d_count));
    set_dev("gknn_transfer_d2h_count", static_cast<double>(totals.d2h_count));
    set_dev("gknn_transfer_h2d_seconds", totals.h2d_seconds);
    set_dev("gknn_transfer_d2h_seconds", totals.d2h_seconds);
  };
  // Unlabelled sums: accumulate with gauge adds via a scratch pass. The
  // gauges are plain sets, so sum in host variables first.
  {
    double clock = 0, sim_wall = 0;
    uint64_t launches = 0, bytes = 0, peak = 0, hazards = 0;
    gpusim::TransferLedger::Totals sum{};
    for (uint32_t i = 0; i < n_devices; ++i) {
      gpusim::Device& dev = devices_->device(i);
      clock += dev.ClockSeconds();
      sim_wall += dev.sim_wall_seconds();
      launches += dev.kernel_launches();
      bytes += dev.bytes_allocated();
      peak += dev.peak_bytes();
      hazards += dev.hazard_count();
      const gpusim::TransferLedger::Totals t = dev.ledger().totals();
      sum.h2d_bytes += t.h2d_bytes;
      sum.d2h_bytes += t.d2h_bytes;
      sum.h2d_count += t.h2d_count;
      sum.d2h_count += t.d2h_count;
      sum.h2d_seconds += t.h2d_seconds;
      sum.d2h_seconds += t.d2h_seconds;
    }
    set("gknn_device_clock_seconds", clock);
    set("gknn_device_kernel_launches", static_cast<double>(launches));
    set("gknn_device_sim_wall_seconds", sim_wall);
    set("gknn_device_bytes_allocated", static_cast<double>(bytes));
    set("gknn_device_peak_bytes", static_cast<double>(peak));
    set("gknn_device_hazards", static_cast<double>(hazards));
    set("gknn_transfer_h2d_bytes", static_cast<double>(sum.h2d_bytes));
    set("gknn_transfer_d2h_bytes", static_cast<double>(sum.d2h_bytes));
    set("gknn_transfer_h2d_count", static_cast<double>(sum.h2d_count));
    set("gknn_transfer_d2h_count", static_cast<double>(sum.d2h_count));
    set("gknn_transfer_h2d_seconds", sum.h2d_seconds);
    set("gknn_transfer_d2h_seconds", sum.d2h_seconds);
  }
  if (n_devices > 1) {
    for (uint32_t i = 0; i < n_devices; ++i) {
      const std::string label = "{device=\"" + std::to_string(i) + "\"}";
      fold_device(label, devices_->device(i));
      const gpusim::DeviceSchedStats sched = scheduler_->device_stats(i);
      set("gknn_sched_leases" + label, static_cast<double>(sched.leases));
      set("gknn_sched_probes" + label, static_cast<double>(sched.probes));
      set("gknn_sched_device_errors" + label,
          static_cast<double>(sched.device_errors));
      set("gknn_sched_unhealthy" + label, sched.unhealthy ? 1.0 : 0.0);
    }
  }
  // Per-kernel timing, merged across the set (kernel names are shared).
  std::map<std::string, gpusim::Device::KernelTotals> merged;
  for (uint32_t i = 0; i < n_devices; ++i) {
    for (const auto& [kernel, k_totals] : devices_->device(i).kernel_totals()) {
      gpusim::Device::KernelTotals& m = merged[kernel];
      m.launches += k_totals.launches;
      m.iterations += k_totals.iterations;
      m.modeled_seconds += k_totals.modeled_seconds;
    }
  }
  for (const auto& [kernel, k_totals] : merged) {
    const std::string labels = "{kernel=\"" + kernel + "\"}";
    set("gknn_kernel_launches" + labels,
        static_cast<double>(k_totals.launches));
    set("gknn_kernel_iterations" + labels,
        static_cast<double>(k_totals.iterations));
    set("gknn_kernel_modeled_seconds" + labels, k_totals.modeled_seconds);
  }
  // Index memory and state.
  const MemoryBreakdown mem = Memory();
  set("gknn_memory_bytes{component=\"grid_cpu\"}",
      static_cast<double>(mem.grid_cpu));
  set("gknn_memory_bytes{component=\"object_table\"}",
      static_cast<double>(mem.object_table));
  set("gknn_memory_bytes{component=\"message_lists\"}",
      static_cast<double>(mem.message_lists));
  set("gknn_memory_bytes{component=\"support\"}",
      static_cast<double>(mem.support));
  set("gknn_memory_bytes{component=\"grid_gpu\"}",
      static_cast<double>(mem.grid_gpu));
  set("gknn_cached_messages", static_cast<double>(cached_messages()));
  set("gknn_index_queries_processed",
      static_cast<double>(counters_.queries_processed));
}

GGridIndex::MemoryBreakdown GGridIndex::Memory() const {
  MemoryBreakdown mem;
  mem.grid_cpu = counts_host_grid_ ? grid_->MemoryBytes() : 0;
  mem.object_table = object_table_.MemoryBytes();
  mem.message_lists =
      arena_.MemoryBytes() + lists_.size() * sizeof(MessageList);
  uint64_t registry = objects_on_edge_.size() *
                      (sizeof(roadnet::EdgeId) + 3 * sizeof(void*));
  for (const auto& [edge, objects] : objects_on_edge_) {
    (void)edge;
    registry += objects.capacity() * sizeof(ObjectId);
  }
  mem.support = registry;
  mem.grid_gpu = 0;
  for (const auto& copy : grid_gpu_copies_) mem.grid_gpu += copy.size_bytes();
  return mem;
}

}  // namespace gknn::core
