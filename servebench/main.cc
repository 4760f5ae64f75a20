// Closed-loop serving benchmark: replays a seeded moving-object trace
// (location updates interleaved with kNN and range queries at fixed
// simulated ticks) through QueryServer or ShardRouter from one client
// thread, checks answers against an independent Dijkstra oracle, and
// prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) as one JSON line. See README.md in this directory.
//
// Usage: servebench --workload <name> [--seed N] [--seconds S]
//                   [--trace 0|1] [--check-all] [--profile perf]
//                   [--spans FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "gpusim/fault_injector.h"
#include "gpusim/hazard.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "replay.h"
#include "roadnet/partitioner.h"
#include "spans.h"
#include "util/lockdep.h"
#include "workload/datasets.h"

namespace servebench {
namespace {

/// Network seed: the dataset is fixed, the workload seed drives the trace.
constexpr uint64_t kGraphSeed = 1;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed ticks of the --check-all mode, where every answer is checked.
constexpr uint64_t kCheckAllTicks = 400;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool check_all = false;
  std::string profile = "perf";
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--check-all") {
      args->check_all = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end == '\0' && !(args->seconds > 0 && args->seconds <= 600)) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end == '\0' && args->trace != 0 && args->trace != 1) {
        *error = "--trace must be 0 or 1";
        return false;
      }
    } else if (flag == "--profile") {
      args->profile = value;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number '" + value + "' for " + flag;
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    *error = "--workload must be one of: " + WorkloadNames();
    return false;
  }
  return true;
}

/// The declared perf profile: Release, lockdep compiled out, observability
/// compiled in, hazard checking off, no fault injection. The two overhead
/// profiles differ only in the one switch they are named after.
std::string ProfileProblem(const Args& args) {
  const std::string built = SERVEBENCH_PROFILE;
  if (args.profile != built) {
    return "this binary was built as profile '" + built +
           "' but was asked to run profile '" + args.profile + "'";
  }
  const bool want_lockdep = built == "lockdep";
  const bool want_obs = built != "noobs";
  if (gknn::util::lockdep::kEnabled != want_lockdep) {
    return std::string("lockdep is compiled ") +
           (gknn::util::lockdep::kEnabled ? "in" : "out") +
           ", which profile '" + built + "' does not allow";
  }
  if (gknn::obs::kEnabled != want_obs) {
    return std::string("observability is compiled ") +
           (gknn::obs::kEnabled ? "in" : "out") + ", which profile '" +
           built + "' does not allow";
  }
#ifndef NDEBUG
  return "assertions are compiled in: not a Release build";
#endif
  if (gknn::gpusim::DefaultHazardCheck()) {
    return "gpusim hazard checking is on (unset GKNN_HAZARD_CHECK)";
  }
  if (!gknn::gpusim::DefaultFaultSpec().empty()) {
    return "fault injection is set (GKNN_FAULTS='" +
           gknn::gpusim::DefaultFaultSpec() + "')";
  }
  if (args.trace == 1 && !gknn::obs::kEnabled) {
    return "the traced run reads the observability layer, compiled out here";
  }
  return "";
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Tallies of one run: operations, oracle checks, first problem seen.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first_problem;

  void Note(const std::string& problem) {
    if (first_problem.empty()) first_problem = problem;
  }
  void Add(const ReplayResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    checked += r.checked;
    mismatches += r.mismatches;
    if (!r.first_problem.empty()) Note(r.first_problem);
  }
  bool correct() const { return mismatches == 0 && checked > 0; }
};

/// Server or router creation (grid build, device mirrors), the initial
/// fleet snapshot, and the first query: the set-up users wait for.
struct SetupResult {
  std::unique_ptr<Target> target;
  double seconds = 0;
};

SetupResult SetUp(const gknn::roadnet::Graph* graph, const WorkloadSpec& spec,
                  const TraceGenerator& trace, Tally* tally, SpanLog* spans) {
  SetupResult out;
  const double t_start = NowSeconds();
  auto created = Target::Create(graph, spec);
  const double t_created = NowSeconds();
  if (!created.ok()) {
    ++tally->attempted;
    ++tally->failed;
    tally->Note("set-up failed: " + created.status().ToString());
    return out;
  }
  std::unique_ptr<Target> target = std::move(created).ValueOrDie();
  for (const auto& u : trace.snapshot()) {
    target->Report(u.object_id, u.position, u.time);
  }
  const double t_reported = NowSeconds();
  auto first = target->Knn(trace.setup_query().location, spec.k,
                           trace.setup_query().time);
  const double t_end = NowSeconds();
  out.seconds = t_end - t_start;
  tally->attempted += trace.snapshot().size() + 1;
  if (!first.ok()) {
    ++tally->failed;
    tally->Note("set-up query failed: " + first.status().ToString());
  } else {
    ++tally->checked;
    const std::string problem = CheckSetupAnswer(trace, *first);
    if (!problem.empty()) {
      ++tally->mismatches;
      tally->Note("set-up query: " + problem);
    }
  }
  if (spans != nullptr) {
    const bool sharded = target->sharded();
    spans->Add(Span{0, 0, 0, sharded ? "server.router.Create" : "server.Create",
                    t_start, t_created});
    Span report{0, 0, 0, sharded ? "server.router.Report" : "server.Report",
                t_created, t_reported};
    report.count = trace.snapshot().size();
    spans->Add(report);
    spans->Add(Span{0, 0, 0,
                    sharded ? "server.router.QueryKnn" : "server.QueryKnn",
                    t_reported, t_end});
  }
  out.target = std::move(target);
  return out;
}

struct Plan {
  const WorkloadSpec* spec;
  const gknn::roadnet::Graph* graph;
  const Oracle* oracle;
  uint64_t warmup_ticks;
  uint64_t num_ticks;
};

std::vector<Metric> EndToEnd(const ReplayResult& r,
                             const std::vector<double>& setup_seconds) {
  const double q = static_cast<double>(r.timed_queries);
  return {
      {"setup_s", Percentile(setup_seconds, 0.5), "s"},
      {"knn_p50_us", Percentile(r.knn_us, 0.50), "us"},
      {"knn_p95_us", Percentile(r.knn_us, 0.95), "us"},
      {"range_p50_us", Percentile(r.range_us, 0.50), "us"},
      {"range_p95_us", Percentile(r.range_us, 0.95), "us"},
      {"amortized_us", Ratio(r.replay_wall_s, q) * 1e6, "us"},
      {"host_us_per_query",
       Ratio(r.replay_wall_s - r.devices_delta.sim_wall_s, q) * 1e6, "us"},
      {"device_us_per_query", Ratio(r.devices_delta.clock_s, q) * 1e6, "us"},
      {"index_bytes", static_cast<double>(r.index_bytes), "B"},
  };
}

void PrintSummary(const Plan& plan, const ReplayResult& r, const Tally& t,
                  const char* label) {
  std::printf(
      "# %s %s: %llu timed queries (%zu kNN, %zu range), %llu timed "
      "updates, %llu warm-up ticks; %llu answers checked against the "
      "oracle, %llu mismatches, %llu failed of %llu attempted\n",
      plan.spec->name, label,
      static_cast<unsigned long long>(r.timed_queries), r.knn_us.size(),
      r.range_us.size(), static_cast<unsigned long long>(r.timed_updates),
      static_cast<unsigned long long>(plan.warmup_ticks),
      static_cast<unsigned long long>(t.checked),
      static_cast<unsigned long long>(t.mismatches),
      static_cast<unsigned long long>(t.failed),
      static_cast<unsigned long long>(t.attempted));
}

int RunUntraced(const Plan& plan, const Args& args) {
  Tally tally;
  TraceGenerator trace(plan.graph, plan.oracle, *plan.spec, args.seed,
                       plan.num_ticks, args.check_all);
  std::printf("# range radius %llu\n",
              static_cast<unsigned long long>(trace.radius()));
  std::vector<double> setup_seconds;
  std::unique_ptr<Target> target;
  for (int i = 0; i < kSetups; ++i) {
    target.reset();
    SetupResult setup = SetUp(plan.graph, *plan.spec, trace, &tally, nullptr);
    if (setup.target == nullptr) break;
    setup_seconds.push_back(setup.seconds);
    target = std::move(setup.target);
  }
  ReplayResult r;
  if (target != nullptr) {
    r = Replay(target.get(), &trace, *plan.spec, plan.warmup_ticks, nullptr);
    tally.Add(r);
  }
  PrintSummary(plan, r, tally, "untraced");
  const bool correct = tally.correct();
  if (!tally.first_problem.empty()) {
    std::printf("# first problem: %s\n", tally.first_problem.c_str());
  }
  PrintResult(correct, tally.attempted, tally.failed,
              EndToEnd(r, setup_seconds));
  return correct && tally.failed == 0 ? 0 : 1;
}

int RunTraced(const Plan& plan, const Args& args) {
  const WorkloadSpec& spec = *plan.spec;
  const bool sharded = spec.shards > 0;
  Tally tally;
  SpanLog spans;

  // roadnet: the partitioner alone on the workload's graph.
  const gknn::core::GGridOptions options;
  const double t_partition = NowSeconds();
  auto partition = gknn::roadnet::PartitionIntoGrid(
      *plan.graph, options.delta_c, options.partition);
  const double partition_s = NowSeconds() - t_partition;
  spans.Add(Span{0, 0, 0, "roadnet.PartitionIntoGrid", t_partition,
                 t_partition + partition_s});
  if (!partition.ok()) {
    tally.Note("PartitionIntoGrid failed: " + partition.status().ToString());
    ++tally.failed;
  }

  // The untraced replay the overhead is stated against.
  ReplayResult base;
  {
    TraceGenerator trace(plan.graph, plan.oracle, spec, args.seed,
                         plan.num_ticks, args.check_all);
    SetupResult setup = SetUp(plan.graph, spec, trace, &tally, nullptr);
    if (setup.target != nullptr) {
      base = Replay(setup.target.get(), &trace, spec, plan.warmup_ticks,
                    nullptr);
      tally.Add(base);
    }
  }

  ReplayResult r;
  gknn::core::GGridIndex::MemoryBreakdown memory;
  uint64_t cached_messages = 0;
  double tombstones_per_update = 0;
  {
    TraceGenerator trace(plan.graph, plan.oracle, spec, args.seed,
                         plan.num_ticks, args.check_all);
    SetupResult setup = SetUp(plan.graph, spec, trace, &tally, &spans);
    if (setup.target != nullptr) {
      r = Replay(setup.target.get(), &trace, spec, plan.warmup_ticks, &spans);
      tally.Add(r);
      memory = setup.target->Memory();
      cached_messages = setup.target->cached_messages();
      tombstones_per_update =
          Ratio(static_cast<double>(setup.target->tombstones()),
                static_cast<double>(setup.target->applied_updates()));
    }
  }

  DirectResult d;
  {
    TraceGenerator trace(plan.graph, plan.oracle, spec, args.seed,
                         plan.num_ticks, args.check_all);
    d = ReplayDirect(plan.graph, &trace, spec, plan.warmup_ticks, &spans);
    tally.attempted += d.ingested + d.queries;
    tally.failed += d.failed;
    tally.checked += d.checked;
    tally.mismatches += d.mismatches;
    if (!d.first_problem.empty()) tally.Note(d.first_problem);
  }

  if (!args.spans_path.empty()) {
    if (spans.WriteJsonLines(args.spans_path)) {
      std::printf("# wrote %zu spans to %s\n", spans.size(),
                  args.spans_path.c_str());
    } else {
      tally.Note("could not write spans to " + args.spans_path);
      ++tally.mismatches;
    }
  }

  const double q = static_cast<double>(r.timed_queries);
  const double kq = static_cast<double>(r.router_queries);
  const RegistrySums& g = r.registry_delta;
  const DeviceTotals& dev = r.devices_delta;
  auto per_q = [&](double v) { return Ratio(v, q); };
  auto phase_us = [&](gknn::obs::Phase p) {
    return per_q(g.phase_s[static_cast<size_t>(p)]) * 1e6;
  };
  const gknn::server::RouterStats& r0 = r.router_start;
  const gknn::server::RouterStats& r1 = r.router_end;
  const double report_ns = Ratio(r.report_s, r.timed_updates) * 1e9;
  using gknn::obs::Phase;

  const double base_knn_p50 = Percentile(base.knn_us, 0.5);
  const double traced_knn_p50 = Percentile(r.knn_us, 0.5);
  const double base_amortized = Ratio(base.replay_wall_s, base.timed_queries);
  const double traced_amortized = Ratio(r.replay_wall_s, q);
  std::printf(
      "# tracing overhead: knn_p50_us %.1f traced vs %.1f untraced, "
      "amortized_us %.1f traced vs %.1f untraced\n",
      traced_knn_p50, base_knn_p50, traced_amortized * 1e6,
      base_amortized * 1e6);

  const std::vector<Metric> metrics = {
      {"server.report_ns", sharded ? 0 : report_ns, "ns"},
      {"server.drain_us_per_query", per_q(g.drain_s) * 1e6, "us"},
      {"server.overhead_us_per_query",
       sharded ? 0 : per_q(r.server_overhead_s) * 1e6, "us"},
      {"server.router.report_ns", sharded ? report_ns : 0, "ns"},
      {"server.router.cross_shard_moves_per_kupdate",
       Ratio(static_cast<double>(r1.cross_shard_moves - r0.cross_shard_moves),
             static_cast<double>(r1.routed_updates - r0.routed_updates)) *
           1000,
       "count"},
      {"server.router.shard_queries_per_query",
       Ratio(static_cast<double>((r1.fanout_shards + r1.refine_shards) -
                                 (r0.fanout_shards + r0.refine_shards)),
             kq),
       "count"},
      {"server.router.useful_shard_ratio",
       Ratio(static_cast<double>(r.useful_shards),
             static_cast<double>(r.shard_subqueries)),
       "ratio"},
      {"server.router.border_refinements_per_query",
       Ratio(static_cast<double>(r1.border_refinements -
                                 r0.border_refinements),
             kq),
       "count"},
      {"server.router.overhead_us_per_query",
       Ratio(r.router_overhead_s, kq) * 1e6, "us"},
      {"core.index.build_s", d.build_s * std::max<uint32_t>(1, spec.shards),
       "s"},
      {"core.index.ingest_ns_per_update", Ratio(d.ingest_s, d.ingested) * 1e9,
       "ns"},
      {"core.index.tombstones_per_update", tombstones_per_update, "count"},
      {"core.index.cached_messages", static_cast<double>(cached_messages),
       "count"},
      {"core.index.message_list_bytes",
       static_cast<double>(memory.message_lists), "B"},
      {"core.index.object_bytes",
       static_cast<double>(memory.object_table + memory.support), "B"},
      {"core.index.grid_bytes",
       static_cast<double>(memory.grid_cpu + memory.grid_gpu), "B"},
      {"core.cleaner.clean_us_per_query", phase_us(Phase::kClean), "us"},
      {"core.cleaner.messages_shipped_per_query",
       per_q(static_cast<double>(g.messages_shipped)), "count"},
      {"core.cleaner.dedup_ratio",
       Ratio(static_cast<double>(g.messages_deduped),
             static_cast<double>(g.messages_shipped)),
       "ratio"},
      {"core.cleaner.modeled_pipeline_us_per_query",
       per_q(g.clean_pipeline_s) * 1e6, "us"},
      {"core.cleaner.buckets_expired_per_query",
       per_q(static_cast<double>(g.buckets_expired)), "count"},
      {"core.cleaner.compacted_hit_ratio",
       Ratio(static_cast<double>(g.clean_served_compacted),
             static_cast<double>(g.clean_cells)),
       "ratio"},
      {"core.engine.expand_us", phase_us(Phase::kExpand), "us"},
      {"core.engine.sdist_us", phase_us(Phase::kSdist), "us"},
      {"core.engine.topk_us", phase_us(Phase::kTopk), "us"},
      {"core.engine.unresolved_us", phase_us(Phase::kUnresolved), "us"},
      {"core.engine.refine_us", phase_us(Phase::kRefine), "us"},
      {"core.engine.cells_examined_per_query",
       per_q(static_cast<double>(g.cells_examined)), "count"},
      {"core.engine.candidate_vertices_per_query",
       Ratio(static_cast<double>(d.candidate_vertices),
             static_cast<double>(d.queries)),
       "count"},
      {"core.engine.unresolved_per_query",
       Ratio(static_cast<double>(d.unresolved_vertices),
             static_cast<double>(d.queries)),
       "count"},
      {"core.engine.refine_yield",
       Ratio(static_cast<double>(d.refined_objects),
             static_cast<double>(d.unresolved_vertices)),
       "ratio"},
      {"gpusim.sim_wall_us_per_query", per_q(dev.sim_wall_s) * 1e6, "us"},
      {"gpusim.modeled_kernel_us_per_query",
       per_q(r.kernels_delta.modeled_s) * 1e6, "us"},
      {"gpusim.kernel_launches_per_query",
       per_q(static_cast<double>(dev.kernel_launches)), "count"},
      {"gpusim.sdist_iterations_per_query",
       per_q(static_cast<double>(r.kernels_delta.sdist_iterations)), "count"},
      {"gpusim.d2h_bytes_per_query", per_q(static_cast<double>(dev.d2h_bytes)),
       "B"},
      {"gpusim.h2d_bytes_per_query", per_q(static_cast<double>(dev.h2d_bytes)),
       "B"},
      {"gpusim.modeled_transfer_us_per_query", per_q(dev.transfer_s) * 1e6,
       "us"},
      {"roadnet.partition_s", partition_s, "s"},
      {"trace.knn_p50_ratio", Ratio(traced_knn_p50, base_knn_p50), "ratio"},
      {"trace.amortized_ratio", Ratio(traced_amortized, base_amortized),
       "ratio"},
  };
  PrintSummary(plan, r, tally, "traced");
  const bool correct = tally.correct();
  if (!tally.first_problem.empty()) {
    std::printf("# first problem: %s\n", tally.first_problem.c_str());
  }
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return correct && tally.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "servebench: %s\n", error.c_str());
    return 2;
  }
  const std::string profile_problem = ProfileProblem(args);
  if (!profile_problem.empty()) {
    std::fprintf(stderr, "servebench: refusing to run: %s\n",
                 profile_problem.c_str());
    return 2;
  }
  const std::string self_test = OracleSelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "servebench: %s\n", self_test.c_str());
    return 1;
  }

  const WorkloadSpec& spec = *FindWorkload(args.workload);
  auto dataset = gknn::workload::FindDataset(spec.dataset);
  if (!dataset.ok()) {
    std::fprintf(stderr, "servebench: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto graph =
      gknn::workload::InstantiateDataset(*dataset, spec.scale, kGraphSeed);
  if (!graph.ok()) {
    std::fprintf(stderr, "servebench: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const Oracle oracle(*graph);

  // Warm-up: one t_Delta of simulated time, after which every bucket of
  // the initial snapshot has expired or been cleaned by a query.
  const uint64_t warmup_ticks = static_cast<uint64_t>(
      std::llround(gknn::core::GGridOptions{}.t_delta / spec.tick_seconds));
  // Whole rounds of range_every ticks, so the trace ends on a range query
  // (on sharded-city that one reaches every shard).
  const uint64_t round = std::max<uint32_t>(1, spec.range_every);
  uint64_t timed_ticks =
      args.check_all
          ? kCheckAllTicks
          : static_cast<uint64_t>(
                std::llround(args.seconds * spec.ticks_per_second));
  timed_ticks = std::max(round, timed_ticks / round * round);
  const Plan plan{&spec, &*graph, &oracle, warmup_ticks,
                  warmup_ticks + timed_ticks};
  std::printf("# workload %s seed %llu: %s/%u (%u vertices, %u edges, %s), "
              "%u objects at %g Hz, a query every %g s, k %u, %s\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              spec.dataset, spec.scale, graph->num_vertices(),
              graph->num_edges(),
              oracle.strongly_connected()
                  ? "strongly connected: every kNN answer must hold "
                    "min(k, objects)"
                  : "not strongly connected: kNN answers checked for <= k",
              spec.num_objects, spec.update_hz, spec.tick_seconds, spec.k,
              spec.shards ? "ShardRouter" : "QueryServer");
  return args.trace == 1 ? RunTraced(plan, args) : RunUntraced(plan, args);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
