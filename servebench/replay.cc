#include "replay.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace servebench {

namespace gg = gknn;

namespace {

// Paper defaults (§VII-A) unless a workload says otherwise. The network
// is the same for every seed (a fixed dataset); the seed drives the fleet
// and the query stream.
constexpr WorkloadSpec kWorkloads[] = {
    // name, dataset, scale, objects, f, tick, k, range_every, shards,
    // devices per shard, timed ticks per second of --seconds
    {"dispatch", "FLA", 50, 10000, 1.0, 0.010, 16, 4, 0, 1, 3600},
    {"update-storm", "FLA", 50, 10000, 10.0, 0.100, 16, 2, 0, 1, 240},
    {"sharded-city", "CAL", 50, 20000, 1.0, 0.005, 16, 4, 4, 2, 3000},
};

/// Oracle-checked queries per run outside --check-all, spread evenly.
constexpr uint64_t kChecksPerRun = 160;
/// Simulator updates generated per chunk (bounds the trace's memory).
constexpr double kUpdatesPerChunk = 1 << 20;
/// Points sampled to size the range radius.
constexpr int kRadiusSamples = 31;
/// Seed of the reference fleet and sample points that size the range
/// radius, whatever the trace seed.
constexpr uint64_t kRadiusSeed = 0;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

gg::workload::MovingObjectSimulator::Options SimOptions(
    const WorkloadSpec& spec, uint64_t seed) {
  gg::workload::MovingObjectSimulator::Options options;
  options.num_objects = spec.num_objects;
  options.update_frequency_hz = spec.update_hz;
  options.movement =
      gg::workload::MovingObjectSimulator::MovementModel::kRandomWalk;
  options.seed = Mix(seed, 0);
  return options;
}

std::vector<EdgePoint> ReportedPositions(
    const gg::workload::MovingObjectSimulator& sim) {
  std::vector<EdgePoint> positions(sim.num_objects());
  for (uint32_t i = 0; i < sim.num_objects(); ++i) {
    positions[i] = sim.LastReportedPositionOf(i);
  }
  return positions;
}

std::string Describe(const std::vector<KnnResultEntry>& entries) {
  std::ostringstream out;
  out << entries.size() << " entries [";
  for (size_t i = 0; i < entries.size() && i < 6; ++i) {
    out << (i ? " " : "") << "(" << entries[i].object << ","
        << entries[i].distance << ")";
  }
  if (entries.size() > 6) out << " ...";
  out << "]";
  return out.str();
}

std::string CheckEntries(const TraceGenerator& trace, bool range,
                         const std::vector<KnnResultEntry>& got,
                         const std::vector<KnnResultEntry>* want) {
  const Distance radius = trace.radius();
  std::unordered_set<gg::core::ObjectId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && !(got[i - 1] < got[i])) {
      return "answer not sorted by (distance, object): " + Describe(got);
    }
    if (!seen.insert(got[i].object).second) {
      return "object " + std::to_string(got[i].object) + " appears twice";
    }
    if (range && got[i].distance > radius) {
      return "range answer holds distance " +
             std::to_string(got[i].distance) + " > radius " +
             std::to_string(radius);
    }
  }
  if (!range && trace.knn_size() != 0 && got.size() != trace.knn_size()) {
    return "kNN answer holds " + std::to_string(got.size()) +
           " entries, not min(k, objects) = " +
           std::to_string(trace.knn_size()) + ": " + Describe(got);
  }
  if (!range && got.size() > trace.k()) {
    return "kNN answer holds " + std::to_string(got.size()) + " > k entries";
  }
  if (want != nullptr && got != *want) {
    return std::string(range ? "range" : "kNN") + " answer " + Describe(got) +
           " differs from the oracle's " + Describe(*want);
  }
  return "";
}

DeviceTotals Sub(const DeviceTotals& a, const DeviceTotals& b) {
  DeviceTotals d;
  d.clock_s = a.clock_s - b.clock_s;
  d.sim_wall_s = a.sim_wall_s - b.sim_wall_s;
  d.h2d_bytes = a.h2d_bytes - b.h2d_bytes;
  d.d2h_bytes = a.d2h_bytes - b.d2h_bytes;
  d.transfer_s = a.transfer_s - b.transfer_s;
  d.kernel_launches = a.kernel_launches - b.kernel_launches;
  return d;
}

RegistrySums Sub(const RegistrySums& a, const RegistrySums& b) {
  RegistrySums d;
  d.drain_s = a.drain_s - b.drain_s;
  for (size_t i = 0; i < d.phase_s.size(); ++i) {
    d.phase_s[i] = a.phase_s[i] - b.phase_s[i];
  }
  d.clean_pipeline_s = a.clean_pipeline_s - b.clean_pipeline_s;
  d.cells_examined = a.cells_examined - b.cells_examined;
  d.clean_cells = a.clean_cells - b.clean_cells;
  d.clean_served_compacted =
      a.clean_served_compacted - b.clean_served_compacted;
  d.buckets_expired = a.buckets_expired - b.buckets_expired;
  d.messages_shipped = a.messages_shipped - b.messages_shipped;
  d.messages_deduped = a.messages_deduped - b.messages_deduped;
  return d;
}

DeviceTotals ReadDeviceList(const std::vector<gg::gpusim::Device*>& devices) {
  DeviceTotals t;
  for (const gg::gpusim::Device* d : devices) {
    t.clock_s += d->ClockSeconds();
    t.sim_wall_s += d->sim_wall_seconds();
    const auto ledger = d->ledger().totals();
    t.h2d_bytes += ledger.h2d_bytes;
    t.d2h_bytes += ledger.d2h_bytes;
    t.transfer_s += ledger.h2d_seconds + ledger.d2h_seconds;
    t.kernel_launches += d->kernel_launches();
  }
  return t;
}

void SetDeviceAttributes(Span* span, const DeviceTotals& delta) {
  span->device_clock_s = delta.clock_s;
  span->sim_wall_s = delta.sim_wall_s;
  span->h2d_bytes = delta.h2d_bytes;
  span->d2h_bytes = delta.d2h_bytes;
  span->kernel_launches = delta.kernel_launches;
}

constexpr const char* kPhaseSpanNames[gg::obs::kNumPhases] = {
    "core.phase.expand",     "core.phase.clean",  "core.phase.sdist",
    "core.phase.topk",       "core.phase.unresolved", "core.phase.refine",
    "core.phase.fallback",   "core.phase.drain"};

/// Lays the engine's own record of the last query on `index` out as child
/// spans: drain, then the engine total with its phases in pipeline order.
void AddRecordSpans(SpanLog* spans, gg::core::GGridIndex* index,
                      uint64_t parent, uint64_t query, double start,
                      double drain_s, double engine_s) {
  Span drain;
  drain.parent = parent;
  drain.query = query;
  drain.name = "server.drain";
  drain.start = start;
  drain.end = start + drain_s;
  drain.from_record = true;
  if (drain_s > 0) spans->Add(drain);

  Span engine;
  engine.parent = parent;
  engine.query = query;
  engine.name = "core.query";
  engine.start = drain.end;
  engine.end = drain.end + engine_s;
  engine.from_record = true;
  const uint64_t engine_id = spans->Add(engine);

  gg::obs::QueryTraceRecord record;
  bool found = false;
  index->tracer().AnnotateLast([&](gg::obs::QueryTraceRecord& last) {
    record = last;
    found = true;
  });
  if (found) {
    double cursor = engine.start;
    for (size_t i = 0; i < gg::obs::kNumPhases; ++i) {
      if ((record.phases_touched & (1u << i)) == 0) continue;
      Span phase;
      phase.parent = engine_id;
      phase.query = query;
      phase.name = kPhaseSpanNames[i];
      phase.start = cursor;
      phase.end = cursor + record.phase_seconds[i];
      phase.from_record = true;
      cursor = phase.end;
      spans->Add(phase);
    }
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

// ---------------------------------------------------------------------------
// Trace generation

TraceGenerator::TraceGenerator(const gg::roadnet::Graph* graph,
                               const Oracle* oracle, const WorkloadSpec& spec,
                               uint64_t seed, uint64_t num_ticks,
                               bool check_all)
    : graph_(graph),
      oracle_(oracle),
      spec_(spec),
      num_ticks_(num_ticks),
      check_all_(check_all),
      sim_(graph, SimOptions(spec, seed)),
      query_rng_(Mix(seed, 1)),
      check_rng_(Mix(seed, 2)) {
  check_stride_ =
      check_all ? 1 : std::max<uint64_t>(1, num_ticks / kChecksPerRun);
  const double updates_per_tick =
      spec.num_objects * spec.update_hz * spec.tick_seconds;
  ticks_per_chunk_ = static_cast<uint32_t>(
      std::max(1.0, std::floor(kUpdatesPerChunk / updates_per_tick)));

  sim_.EmitFullSnapshot(&snapshot_);
  const std::vector<EdgePoint> positions = ReportedPositions(sim_);

  // A radius that holds about k objects: the median k-th neighbour
  // distance over seeded points of a reference fleet. The fleets of all
  // seeds have the same density, so one radius serves every trace seed.
  // Sized on each seed's own fleet and samples it would vary by about
  // +-10% between seeds, and range cost with it.
  const gg::workload::MovingObjectSimulator reference(
      graph, SimOptions(spec, kRadiusSeed));
  const std::vector<EdgePoint> reference_positions =
      ReportedPositions(reference);
  gg::util::Rng radius_rng(Mix(kRadiusSeed, 3));
  std::vector<Distance> kth;
  for (int i = 0; i < kRadiusSamples; ++i) {
    const auto answer = oracle_->Knn(RandomPoint(&radius_rng), spec.k,
                                     reference_positions);
    if (!answer.empty()) kth.push_back(answer.back().distance);
  }
  GKNN_CHECK(!kth.empty()) << "no object reachable from any sample point";
  std::sort(kth.begin(), kth.end());
  radius_ = kth[kth.size() / 2];
  if (oracle_->strongly_connected()) {
    knn_size_ = std::min(spec.k, spec.num_objects);
  }

  setup_query_.index = 0;
  setup_query_.time = 0;
  setup_query_.location = RandomPoint(&query_rng_);
  setup_expected_ = oracle_->Knn(setup_query_.location, spec.k, positions);
}

EdgePoint TraceGenerator::RandomPoint(gg::util::Rng* rng) const {
  EdgePoint p;
  p.edge = static_cast<gg::roadnet::EdgeId>(
      rng->NextBounded(graph_->num_edges()));
  p.offset = static_cast<uint32_t>(
      rng->NextBounded(uint64_t{graph_->edge(p.edge).weight} + 1));
  return p;
}

bool TraceGenerator::IsChecked(uint64_t tick) {
  if (check_all_) return true;
  if ((tick - 1) % check_stride_ == 0) {
    next_checked_ = tick + check_rng_.NextBounded(check_stride_);
  }
  return tick == next_checked_;
}

bool TraceGenerator::NextChunk(Chunk* chunk) {
  chunk->updates.clear();
  chunk->ticks.clear();
  chunk->expected.clear();
  if (next_tick_ > num_ticks_) return false;
  const uint64_t last =
      std::min<uint64_t>(num_ticks_, next_tick_ + ticks_per_chunk_ - 1);
  for (uint64_t t = next_tick_; t <= last; ++t) {
    Tick tick;
    tick.index = t;
    tick.time = static_cast<double>(t) * spec_.tick_seconds;
    tick.location = RandomPoint(&query_rng_);
    tick.range = spec_.range_every != 0 && t % spec_.range_every == 0;
    if (IsChecked(t)) {
      // The oracle sees exactly what was reported up to this tick.
      sim_.AdvanceTo(tick.time, &chunk->updates);
      const std::vector<EdgePoint> positions = ReportedPositions(sim_);
      chunk->expected.push_back(
          tick.range ? oracle_->Range(tick.location, radius_, positions)
                     : oracle_->Knn(tick.location, spec_.k, positions));
      tick.expected = static_cast<int32_t>(chunk->expected.size() - 1);
    }
    chunk->ticks.push_back(tick);
  }
  sim_.AdvanceTo(chunk->ticks.back().time, &chunk->updates);

  // Updates reported at or before a tick's time precede its query.
  size_t u = 0;
  for (Tick& tick : chunk->ticks) {
    tick.first_update = static_cast<uint32_t>(u);
    while (u < chunk->updates.size() && chunk->updates[u].time <= tick.time) {
      ++u;
    }
    tick.num_updates = static_cast<uint32_t>(u - tick.first_update);
  }
  GKNN_CHECK(u == chunk->updates.size()) << "update after the chunk's end";
  next_tick_ = last + 1;
  return true;
}

// ---------------------------------------------------------------------------
// Serving target

IndexSeries::IndexSeries(gg::core::GGridIndex* idx) : index(idx) {
  gg::obs::MetricRegistry& r = idx->metrics();
  drain = r.GetHistogram("gknn_server_drain_seconds");
  query = r.GetHistogram("gknn_query_seconds");
  for (size_t i = 0; i < phase.size(); ++i) {
    std::string name = "gknn_query_phase_seconds{phase=\"";
    name += gg::obs::PhaseName(static_cast<gg::obs::Phase>(i));
    name += "\"}";
    phase[i] = r.GetHistogram(name);
  }
  clean_pipeline = r.GetHistogram("gknn_clean_pipeline_seconds");
  cells_examined = r.GetCounter("gknn_query_cells_examined_total");
  clean_cells = r.GetCounter("gknn_clean_cells_total");
  clean_served_compacted =
      r.GetCounter("gknn_clean_cells_served_compacted_total");
  buckets_expired = r.GetCounter("gknn_clean_buckets_expired_total");
  messages_shipped = r.GetCounter("gknn_clean_messages_shipped_total");
  messages_deduped = r.GetCounter("gknn_clean_messages_deduped_total");
}

gg::util::Result<std::unique_ptr<Target>> Target::Create(
    const gg::roadnet::Graph* graph, const WorkloadSpec& spec) {
  std::unique_ptr<Target> target(new Target());
  const gg::core::GGridOptions options;  // the paper's tuned defaults
  if (spec.shards == 0) {
    target->device_ = std::make_unique<gg::gpusim::Device>();
    GKNN_ASSIGN_OR_RETURN(
        target->server_,
        gg::server::QueryServer::Create(graph, options,
                                        target->device_.get()));
  } else {
    gg::server::ShardRouterOptions router_options;
    router_options.num_shards = spec.shards;
    router_options.devices_per_shard = spec.devices_per_shard;
    GKNN_ASSIGN_OR_RETURN(
        target->router_,
        gg::server::ShardRouter::Create(graph, options, router_options));
  }
  target->Collect();
  return target;
}

void Target::Collect() {
  if (router_) {
    for (uint32_t s = 0; s < router_->num_shards(); ++s) {
      gg::gpusim::DeviceSet& set = router_->device_set(s);
      for (uint32_t i = 0; i < set.size(); ++i) {
        devices_.push_back(&set.device(i));
      }
      series_.emplace_back(&router_->shard(s).index());
    }
  } else {
    devices_.push_back(device_.get());
    series_.emplace_back(&server_->index());
  }
}

gg::util::Result<std::vector<KnnResultEntry>> Target::Range(
    EdgePoint location, Distance radius, double t_now,
    std::vector<std::pair<double, double>>* shard_times) {
  if (!router_) return server_->QueryRange(location, radius, t_now);
  // Every object lives in exactly one shard, so the union of the shards'
  // answers is the exact answer.
  std::vector<KnnResultEntry> merged;
  for (uint32_t s = 0; s < router_->num_shards(); ++s) {
    const double start = shard_times ? NowSeconds() : 0;
    auto part = router_->shard(s).QueryRange(location, radius, t_now);
    if (shard_times) shard_times->emplace_back(start, NowSeconds());
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part->begin(), part->end());
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

uint64_t Target::pending_updates() const {
  return router_ ? router_->pending_updates() : server_->pending_updates();
}

uint64_t Target::applied_updates() const {
  return router_ ? router_->applied_updates() : server_->applied_updates();
}

gg::core::GGridIndex::MemoryBreakdown Target::Memory() const {
  gg::core::GGridIndex::MemoryBreakdown sum;
  for (const IndexSeries& s : series_) {
    const auto m = s.index->Memory();
    sum.grid_cpu += m.grid_cpu;
    sum.object_table += m.object_table;
    sum.message_lists += m.message_lists;
    sum.support += m.support;
    sum.grid_gpu += m.grid_gpu;
  }
  return sum;
}

uint64_t Target::cached_messages() const {
  uint64_t total = 0;
  for (const IndexSeries& s : series_) total += s.index->cached_messages();
  return total;
}

uint64_t Target::tombstones() const {
  uint64_t total = 0;
  for (const IndexSeries& s : series_) {
    total += s.index->counters().tombstones_written.load();
  }
  return total;
}

DeviceTotals Target::ReadDevices() const { return ReadDeviceList(devices_); }

KernelSums Target::ReadKernels() const {
  KernelSums sums;
  for (const gg::gpusim::Device* d : devices_) {
    for (const auto& [label, totals] : d->kernel_totals()) {
      sums.modeled_s += totals.modeled_seconds;
      if (label == "GPU_SDist") sums.sdist_iterations += totals.iterations;
    }
  }
  return sums;
}

RegistrySums Target::ReadRegistry() const {
  RegistrySums sums;
  for (const IndexSeries& s : series_) {
    sums.drain_s += s.drain->Sum();
    for (size_t i = 0; i < sums.phase_s.size(); ++i) {
      sums.phase_s[i] += s.phase[i]->Sum();
    }
    sums.clean_pipeline_s += s.clean_pipeline->Sum();
    sums.cells_examined += s.cells_examined->Value();
    sums.clean_cells += s.clean_cells->Value();
    sums.clean_served_compacted += s.clean_served_compacted->Value();
    sums.buckets_expired += s.buckets_expired->Value();
    sums.messages_shipped += s.messages_shipped->Value();
    sums.messages_deduped += s.messages_deduped->Value();
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Replays

std::string CheckAnswer(const TraceGenerator& trace, const Tick& tick,
                        const Chunk& chunk,
                        const std::vector<KnnResultEntry>& got) {
  const std::vector<KnnResultEntry>* want =
      tick.expected >= 0 ? &chunk.expected[tick.expected] : nullptr;
  return CheckEntries(trace, tick.range, got, want);
}

std::string CheckSetupAnswer(const TraceGenerator& trace,
                             const std::vector<KnnResultEntry>& got) {
  return CheckEntries(trace, false, got, &trace.setup_expected());
}

namespace {

/// Per-shard values read around one traced router query.
struct ShardProbe {
  double drain_s = 0;
  double query_s = 0;
  uint64_t queries = 0;
};

std::vector<ShardProbe> ProbeShards(const Target& target) {
  std::vector<ShardProbe> probes;
  for (const IndexSeries& s : target.series()) {
    probes.push_back(ShardProbe{
        s.drain->Sum(), s.query->Sum(),
        s.index->counters().queries_processed.load()});
  }
  return probes;
}

}  // namespace

ReplayResult Replay(Target* target, TraceGenerator* trace,
                    const WorkloadSpec& spec, uint64_t warmup_ticks,
                    SpanLog* spans) {
  ReplayResult r;
  const uint64_t timed_ticks = trace->num_ticks() - warmup_ticks;
  r.knn_us.reserve(timed_ticks);
  r.range_us.reserve(timed_ticks / std::max<uint32_t>(1, spec.range_every) +
                     1);
  const Distance radius = trace->radius();
  gg::server::ShardRouter* router = target->router();

  // Positions as reported so far; the traced router replay maps answer
  // objects to the shard that owns them.
  std::vector<EdgePoint> reported;
  if (spans != nullptr && router != nullptr) {
    reported.resize(spec.num_objects);
    for (const auto& u : trace->snapshot()) reported[u.object_id] = u.position;
  }

  bool timing = false;
  DeviceTotals devices_start;
  KernelSums kernels_start;
  RegistrySums registry_start;
  std::vector<std::pair<double, double>> shard_times;
  Chunk chunk;
  while (trace->NextChunk(&chunk)) {
    for (const Tick& tick : chunk.ticks) {
      const bool timed = tick.index > warmup_ticks;
      if (timed && !timing) {
        timing = true;
        devices_start = target->ReadDevices();
        kernels_start = target->ReadKernels();
        registry_start = target->ReadRegistry();
        if (router != nullptr) r.router_start = router->router_stats();
      }
      const gg::workload::LocationUpdate* updates =
          chunk.updates.data() + tick.first_update;

      const double t_start = NowSeconds();
      for (uint32_t i = 0; i < tick.num_updates; ++i) {
        target->Report(updates[i].object_id, updates[i].position,
                       updates[i].time);
      }
      // Traced only: the state the query's span attributes are deltas of.
      DeviceTotals dev_before;
      std::vector<ShardProbe> probes_before;
      gg::server::RouterStats router_before;
      const double t_reported = NowSeconds();
      if (spans != nullptr) {
        dev_before = target->ReadDevices();
        probes_before = ProbeShards(*target);
        if (router != nullptr) router_before = router->router_stats();
        shard_times.clear();
      }
      const double t_query = spans != nullptr ? NowSeconds() : t_reported;
      auto result =
          tick.range
              ? target->Range(tick.location, radius, tick.time,
                              spans != nullptr ? &shard_times : nullptr)
              : target->Knn(tick.location, spec.k, tick.time);
      const double t_end = NowSeconds();

      r.attempted += tick.num_updates + 1;
      if (timed) {
        (tick.range ? r.range_us : r.knn_us).push_back((t_end - t_query) * 1e6);
        r.replay_wall_s += (t_reported - t_start) + (t_end - t_query);
        r.timed_queries += 1;
        r.timed_updates += tick.num_updates;
        if (router != nullptr && !tick.range) r.router_queries += 1;
      }
      if (!reported.empty()) {
        for (uint32_t i = 0; i < tick.num_updates; ++i) {
          reported[updates[i].object_id] = updates[i].position;
        }
      }
      if (!result.ok()) {
        ++r.failed;
        if (r.first_problem.empty()) {
          r.first_problem = "query at tick " + std::to_string(tick.index) +
                            " failed: " + result.status().ToString();
        }
        continue;
      }

      if (spans != nullptr) {
        const bool sharded_range = router != nullptr && tick.range;
        Span report;
        report.query = tick.index;
        report.name = router ? "server.router.Report" : "server.Report";
        report.start = t_start;
        report.end = t_reported;
        report.count = tick.num_updates;
        spans->Add(report);

        Span query;
        query.query = tick.index;
        query.name = router ? (tick.range ? "client.shard_fanout.QueryRange"
                                          : "server.router.QueryKnn")
                            : (tick.range ? "server.QueryRange"
                                          : "server.QueryKnn");
        query.start = t_query;
        query.end = t_end;
        SetDeviceAttributes(&query, Sub(target->ReadDevices(), dev_before));
        const uint64_t query_id = spans->Add(query);

        const std::vector<ShardProbe> probes_after = ProbeShards(*target);
        double shard_side_s = 0;
        double cursor = t_query;
        for (size_t s = 0; s < probes_after.size(); ++s) {
          if (probes_after[s].queries == probes_before[s].queries) continue;
          const double drain_s =
              probes_after[s].drain_s - probes_before[s].drain_s;
          const double engine_s =
              probes_after[s].query_s - probes_before[s].query_s;
          shard_side_s += drain_s + engine_s;
          gg::core::GGridIndex* index = target->series()[s].index;
          if (router == nullptr) {
            AddRecordSpans(spans, index, query_id, tick.index, t_query,
                           drain_s, engine_s);
            continue;
          }
          Span shard;
          shard.parent = query_id;
          shard.query = tick.index;
          shard.shard = static_cast<int32_t>(s);
          if (sharded_range) {
            // A real call made by the benchmark: its own clock readings.
            shard.name = "server.QueryRange";
            shard.start = shard_times[s].first;
            shard.end = shard_times[s].second;
          } else {
            // Inside the router: duration from the shard's own series.
            shard.name = "server.shard_subquery";
            shard.start = cursor;
            shard.end = cursor + drain_s + engine_s;
            shard.from_record = true;
            cursor = shard.end;
          }
          const uint64_t shard_id = spans->Add(shard);
          AddRecordSpans(spans, index, shard_id, tick.index, shard.start,
                         drain_s, engine_s);
        }
        if (timed) {
          const double latency = t_end - t_query;
          r.report_s += t_reported - t_start;
          if (router == nullptr) {
            r.server_overhead_s += latency - shard_side_s;
          } else if (!tick.range) {
            r.router_overhead_s += latency - shard_side_s;
          }
        }
        if (router != nullptr && !tick.range && timed) {
          const gg::server::RouterStats after = router->router_stats();
          r.shard_subqueries +=
              (after.fanout_shards + after.refine_shards) -
              (router_before.fanout_shards + router_before.refine_shards);
          std::vector<uint8_t> owns(router->num_shards(), 0);
          for (const KnnResultEntry& e : *result) {
            owns[router->ShardOfPoint(reported[e.object])] = 1;
          }
          for (uint8_t o : owns) r.useful_shards += o;
        }
      }

      const std::string problem = CheckAnswer(*trace, tick, chunk, *result);
      if (tick.expected >= 0) ++r.checked;
      if (!problem.empty()) {
        ++r.mismatches;
        if (r.first_problem.empty()) {
          r.first_problem =
              "tick " + std::to_string(tick.index) + ": " + problem;
        }
      }
    }
  }
  r.devices_delta = Sub(target->ReadDevices(), devices_start);
  const KernelSums kernels_end = target->ReadKernels();
  r.kernels_delta.modeled_s = kernels_end.modeled_s - kernels_start.modeled_s;
  r.kernels_delta.sdist_iterations =
      kernels_end.sdist_iterations - kernels_start.sdist_iterations;
  r.registry_delta = Sub(target->ReadRegistry(), registry_start);
  if (router != nullptr) r.router_end = router->router_stats();
  r.index_bytes = target->Memory().total();

  // The trace ends on a query that reaches every engine, so nothing may
  // stay buffered.
  if (target->pending_updates() != 0) {
    ++r.mismatches;
    if (r.first_problem.empty()) {
      r.first_problem = std::to_string(target->pending_updates()) +
                        " updates still pending after the last query";
    }
  }
  return r;
}

DirectResult ReplayDirect(const gg::roadnet::Graph* graph,
                          TraceGenerator* trace, const WorkloadSpec& spec,
                          uint64_t warmup_ticks, SpanLog* spans) {
  DirectResult r;
  auto note = [&](const std::string& problem) {
    if (r.first_problem.empty()) r.first_problem = problem;
  };
  gg::gpusim::DeviceSet devices(spec.devices_per_shard);
  const double t_build = NowSeconds();
  auto built = gg::core::GGridIndex::Build(graph, gg::core::GGridOptions{},
                                           &devices);
  r.build_s = NowSeconds() - t_build;
  if (!built.ok()) {
    ++r.failed;
    note("GGridIndex::Build failed: " + built.status().ToString());
    return r;
  }
  std::unique_ptr<gg::core::GGridIndex> index = std::move(built).ValueOrDie();
  if (spans != nullptr) {
    Span build;
    build.name = "core.GGridIndex::Build";
    build.start = t_build;
    build.end = t_build + r.build_s;
    spans->Add(build);
  }

  for (const auto& u : trace->snapshot()) {
    if (!index->Ingest(u.object_id, u.position, u.time).ok()) ++r.failed;
  }
  auto setup = index->QueryKnn(trace->setup_query().location, spec.k, 0);
  if (!setup.ok()) {
    ++r.failed;
  } else {
    ++r.checked;
    const std::string problem = CheckSetupAnswer(*trace, *setup);
    if (!problem.empty()) {
      ++r.mismatches;
      note("direct set-up query: " + problem);
    }
  }

  const Distance radius = trace->radius();
  Chunk chunk;
  while (trace->NextChunk(&chunk)) {
    for (const Tick& tick : chunk.ticks) {
      const bool timed = tick.index > warmup_ticks;
      const gg::workload::LocationUpdate* updates =
          chunk.updates.data() + tick.first_update;
      const double t_start = NowSeconds();
      for (uint32_t i = 0; i < tick.num_updates; ++i) {
        if (!index->Ingest(updates[i].object_id, updates[i].position,
                           updates[i].time)
                 .ok()) {
          ++r.failed;
        }
      }
      const double t_ingested = NowSeconds();
      gg::core::KnnStats stats;
      auto result =
          tick.range
              ? index->QueryRange(tick.location, radius, tick.time, &stats)
              : index->QueryKnn(tick.location, spec.k, tick.time, &stats);
      const double t_end = NowSeconds();
      if (spans != nullptr) {
        Span ingest;
        ingest.query = tick.index;
        ingest.name = "core.Ingest";
        ingest.start = t_start;
        ingest.end = t_ingested;
        ingest.count = tick.num_updates;
        spans->Add(ingest);
        Span query;
        query.query = tick.index;
        query.name = tick.range ? "core.QueryRange" : "core.QueryKnn";
        query.start = t_ingested;
        query.end = t_end;
        spans->Add(query);
      }
      if (timed) {
        r.ingest_s += t_ingested - t_start;
        r.ingested += tick.num_updates;
        r.queries += 1;
        r.candidate_vertices += stats.candidate_vertices;
        r.unresolved_vertices += stats.unresolved_vertices;
        r.refined_objects += stats.refined_objects;
      }
      if (!result.ok()) {
        ++r.failed;
        note("direct query failed: " + result.status().ToString());
        continue;
      }
      if (tick.expected >= 0) ++r.checked;
      const std::string problem = CheckAnswer(*trace, tick, chunk, *result);
      if (!problem.empty()) {
        ++r.mismatches;
        note("direct tick " + std::to_string(tick.index) + ": " + problem);
      }
    }
  }
  return r;
}

}  // namespace servebench
