// Shard scaling (docs/SHARDING.md): one logical road network served by
// N region shards, each with its own device, index, and inbox behind a
// ShardRouter. Reports wall-clock queries/sec through the router's batch
// pool and a *modeled multi-device* queries/sec: the queries run serially,
// each shard device's modeled clock delta is charged to that device, and
// the busiest device's total (the device makespan) bounds the throughput
// N independent devices would sustain. The modeled clocks are a pure
// function of the work, so the makespan repeats exactly between runs and
// the smoke gate reads scaling, not host load. Host thread-CPU time of
// the same serial queries (CLOCK_THREAD_CPUTIME_ID) is printed in its own
// column and gates nothing: on a shared host it swings between identical
// runs by more than the scaling it would be compared against.
//
// Scaling comes from two properties the differential suite proves don't
// cost exactness: objects partition by region (each shard's index holds
// |O|/N objects), and a dense fleet keeps the candidate ring of most
// queries inside their home shard, so fan-out stays near 1 and the
// makespan divides by N.
//
// Usage: bench_shard_scaling [--dataset=USA] [--shards=1,2,4,8]
//                            [--scale=N] [--objects=N] [--queries=N]
//                            [--k=K] [--smoke]
//
// --smoke runs the USA-scale synthetic instance small and exits non-zero
// unless modeled q/s increases monotonically from 1 to 8 shards and the
// 4-shard throughput is at least 2x the 1-shard throughput (the CI
// regression gate for the sharding layer).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/scenario.h"
#include "common/table.h"
#include "server/shard_router.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/moving_objects.h"
#include "workload/queries.h"

namespace gknn::bench {
namespace {

util::Result<std::unique_ptr<server::ShardRouter>> BuildRouter(
    const roadnet::Graph* graph, uint32_t num_shards, uint32_t query_threads,
    const CommonFlags& flags) {
  server::ShardRouterOptions options;
  options.num_shards = num_shards;
  options.server.query_threads = query_threads;
  options.device = ScaledDeviceConfig(flags.scale);
  return server::ShardRouter::Create(graph, core::GGridOptions{}, options);
}

/// Snapshot of every shard device's modeled clock.
std::vector<double> FleetClocks(server::ShardRouter* router) {
  std::vector<double> clocks(router->num_shards());
  for (uint32_t s = 0; s < router->num_shards(); ++s) {
    clocks[s] = router->device(s).ClockSeconds();
  }
  return clocks;
}

/// A full-fan-out query (k far above any shard's population) that drains
/// every shard's inbox and pays first-touch cleaning before the timed
/// window; its own cost is not recorded.
void WarmupAllShards(server::ShardRouter* router, roadnet::EdgePoint at,
                     uint32_t num_objects, double t_now) {
  auto r = router->QueryKnn(at, num_objects + 1, t_now);
  GKNN_CHECK(r.ok()) << r.status().ToString();
}

bool RunShardScaling(const std::string& dataset,
                     const std::vector<uint32_t>& shard_counts,
                     const CommonFlags& flags, bool smoke) {
  auto graph = LoadDataset(dataset, flags.scale, flags.seed,
                           flags.dimacs_dir);
  GKNN_CHECK(graph.ok()) << graph.status().ToString();
  const uint32_t num_queries = std::max<uint32_t>(flags.num_queries, 32);
  const auto queries = workload::GenerateQueries(
      *graph,
      {.num_queries = num_queries, .k = flags.k, .seed = flags.seed + 9});
  workload::MovingObjectSimulator sim(
      &*graph, {.num_objects = flags.num_objects, .seed = flags.seed});
  std::vector<workload::LocationUpdate> updates;
  sim.AdvanceTo(2.0, &updates);

  std::printf("Shard scaling on %s (|V|=%u, k=%u, |O|=%u, %u queries): "
              "ShardRouter over per-shard devices\n\n",
              dataset.c_str(), graph->num_vertices(), flags.k,
              flags.num_objects, num_queries);
  TablePrinter table({"Shards", "Avg fan-out", "Wall q/s",
                      "Device makespan ms", "Modeled multi-device q/s",
                      "Modeled speedup", "Host CPU ms (ungated)"});

  double modeled_qps_1 = 0;
  double modeled_qps_4 = 0;
  double serial_makespan_1 = 0;
  bool monotone = true;
  double prev_qps = 0;
  for (uint32_t shards : shard_counts) {
    // Cost router: serial measurement of each device's modeled work.
    // Per-shard-count costs matter — fan-out (and so per-query work)
    // depends on how the borders cut the rings.
    auto cost_router = BuildRouter(&*graph, shards, /*query_threads=*/0,
                                   flags);
    GKNN_CHECK(cost_router.ok()) << cost_router.status().ToString();
    for (const auto& u : updates) {
      (*cost_router)->Report(u.object_id, u.position, u.time);
    }
    WarmupAllShards(cost_router->get(), queries[0].location,
                    flags.num_objects, 2.0);
    // Each query's device work is charged to the device that ran it (a
    // border probe executes on the neighbor shard's device — that is the
    // point of per-shard devices).
    std::vector<double> bins(shards, 0.0);
    double total_cost = 0;
    double host_seconds = 0;
    for (const auto& q : queries) {
      const std::vector<double> before = FleetClocks(cost_router->get());
      util::ThreadCpuTimer timer;
      auto r = (*cost_router)->QueryKnn(q.location, flags.k, 2.0);
      GKNN_CHECK(r.ok()) << r.status().ToString();
      host_seconds += timer.ElapsedSeconds();
      const std::vector<double> after = FleetClocks(cost_router->get());
      for (uint32_t s = 0; s < shards; ++s) {
        bins[s] += after[s] - before[s];
        total_cost += after[s] - before[s];
      }
    }
    const double makespan = *std::max_element(bins.begin(), bins.end());
    if (std::getenv("GKNN_BENCH_DEBUG") != nullptr) {
      std::fprintf(stderr,
                   "[debug] shards=%u total=%.3fms max_bin=%.3fms "
                   "avg_bin=%.3fms refines=%llu refine_shards=%llu\n",
                   shards, total_cost * 1e3, makespan * 1e3,
                   total_cost / shards * 1e3,
                   static_cast<unsigned long long>(
                       (*cost_router)->router_stats().border_refinements),
                   static_cast<unsigned long long>(
                       (*cost_router)->router_stats().refine_shards));
      std::fprintf(stderr, "[debug]   bins:");
      for (double b : bins) std::fprintf(stderr, " %.2fms", b * 1e3);
      std::fprintf(stderr, "\n[debug]   homes:");
      std::vector<uint32_t> homes(shards, 0);
      for (const auto& q : queries) {
        ++homes[(*cost_router)->ShardOfPoint(q.location)];
      }
      for (uint32_t h : homes) std::fprintf(stderr, " %u", h);
      std::fprintf(stderr, "\n");
    }
    const double modeled_qps = num_queries / makespan;
    const auto stats = (*cost_router)->router_stats();
    const double avg_fanout =
        static_cast<double>(stats.fanout_shards + stats.refine_shards) /
        static_cast<double>(stats.queries);

    // Wall router: the same workload through QueryKnnBatch with one pool
    // thread per shard (a fresh router so caches and clocks start equal).
    auto wall_router = BuildRouter(&*graph, shards, /*query_threads=*/shards,
                                   flags);
    GKNN_CHECK(wall_router.ok()) << wall_router.status().ToString();
    for (const auto& u : updates) {
      (*wall_router)->Report(u.object_id, u.position, u.time);
    }
    WarmupAllShards(wall_router->get(), queries[0].location,
                    flags.num_objects, 2.0);
    std::vector<roadnet::EdgePoint> locations;
    for (const auto& q : queries) locations.push_back(q.location);
    util::Timer wall;
    auto rb = (*wall_router)->QueryKnnBatch(locations, flags.k, 2.0);
    GKNN_CHECK(rb.ok()) << rb.status().ToString();
    const double wall_qps = num_queries / wall.ElapsedSeconds();

    if (shards == shard_counts.front()) {
      serial_makespan_1 = total_cost;
    }
    if (shards == 1) modeled_qps_1 = modeled_qps;
    if (shards == 4) modeled_qps_4 = modeled_qps;
    if (prev_qps > 0 && modeled_qps <= prev_qps) monotone = false;
    prev_qps = modeled_qps;
    table.AddRow({std::to_string(shards), FormatDouble(avg_fanout, 2),
                  FormatDouble(wall_qps, 0), FormatDouble(makespan * 1e3, 3),
                  FormatDouble(modeled_qps, 0),
                  FormatDouble(serial_makespan_1 / makespan, 2) + "x",
                  FormatDouble(host_seconds * 1e3, 2)});
  }
  table.Print();

  if (!smoke) return true;
  if (modeled_qps_1 <= 0 || modeled_qps_4 <= 0) {
    std::printf("SMOKE FAIL: need 1-shard and 4-shard rows for the gate\n");
    return false;
  }
  const double scaling_4 = modeled_qps_4 / modeled_qps_1;
  const bool pass = monotone && scaling_4 >= 2.0;
  std::printf("smoke: modeled q/s %s monotonically with shards; 4-shard "
              "throughput is %.2fx the 1-shard throughput (gate: monotone "
              "and >= 2x) -- %s\n",
              monotone ? "increases" : "DOES NOT increase", scaling_4,
              pass ? "PASS" : "FAIL");
  return pass;
}

}  // namespace
}  // namespace gknn::bench

int main(int argc, char** argv) {
  using namespace gknn;  // NOLINT(build/namespaces)
  bench::Args args(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.error().c_str());
    return 1;
  }
  auto flags = bench::CommonFlags::Parse(args);
  const bool smoke = args.GetBool("smoke", false);
  if (smoke) {
    // Small deterministic USA-scale instance for the ctest/CI gate: a
    // dense fleet keeps candidate rings home-shard-local (sparse fleets
    // push every query into cross-border refinement, which caps scaling).
    flags.scale = std::max<uint32_t>(flags.scale, 4000);
    flags.num_objects = std::max<uint32_t>(flags.num_objects, 1600);
    flags.num_queries = std::max<uint32_t>(flags.num_queries, 160);
    flags.k = std::min<uint32_t>(flags.k, 8);
  }
  std::vector<uint32_t> shards;
  for (const auto& s :
       bench::SplitCsv(args.GetString("shards", "1,2,4,8"))) {
    shards.push_back(static_cast<uint32_t>(std::stoul(s)));
  }
  const std::string dataset = args.GetString("dataset", "USA");
  if (!bench::RunShardScaling(dataset, shards, flags, smoke)) return 1;
  return 0;
}
