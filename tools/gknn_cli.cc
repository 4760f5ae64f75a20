// gknn_cli — interactive/scriptable front end to the G-Grid query server.
//
// Load a road network (a DIMACS .gr file or a generated one), then drive
// the server with line commands on stdin:
//
//   add <object> <edge> <offset> <time>    report an object location
//   remove <object> <time>                 deregister an object
//   query <edge> <offset> <k> <time>       k nearest objects
//   trim <time>                            maintenance sweep
//   record <file> <objects> <f> <queries> <k>   write a workload trace
//   replay <file>                          replay a trace file
//   stats                                  counters, memory, degradation
//   metrics                                Prometheus text exposition
//   help                                   this list
//   quit
//
// Flags:
//   --graph=FILE | --synthetic=N   road network source
//   --shards=N                     serve through a ShardRouter over N
//                                  region shards, each with its own
//                                  device/index/inbox (docs/SHARDING.md);
//                                  1 (default) keeps the single-engine
//                                  QueryServer path
//   --devices=N                    simulated GPUs per engine: a
//                                  gpusim::DeviceSet of N independent
//                                  fault domains behind the multi-stream
//                                  scheduler (docs/GPU_SIMULATION.md
//                                  "Multi-device"); composes with
//                                  --shards=S for S x N devices total
//   --seed=N                       workload seed
//   --faults=SPEC                  fault-injection spec (same grammar as
//                                  GKNN_FAULTS; see docs/ROBUSTNESS.md),
//                                  e.g. --faults='alloc:p=0.05;seed=7'
//   --threads=N                    worker threads of the server's batch-
//                                  query pool (docs/CONCURRENCY.md);
//                                  0 (default) answers batches inline
//   --deadline-ms=D                per-query latency budget; queries that
//                                  blow it return DeadlineExceeded
//                                  (0 = unlimited)
//   --max-inflight=N               admission control: concurrent query
//                                  slots (0 = admission off)
//   --max-queued=N                 arrivals allowed to wait for a slot;
//                                  beyond that the server sheds with
//                                  ResourceExhausted
//   --brownout                     degrade admitted queries under pressure
//                                  before shedding (docs/ROBUSTNESS.md)
//   --stats                        dump the stats block on exit
//   --metrics[=FILE]               on exit, dump the observability registry
//                                  (Prometheus text + one-line JSON, see
//                                  docs/OBSERVABILITY.md) to stdout, or to
//                                  FILE (text) and FILE.json (JSON)
//
// Exits non-zero when any command reported an error.
//
// Examples:
//   ./build/tools/gknn_cli --synthetic=5000
//   ./build/tools/gknn_cli --graph=USA-road-d.NY.gr < trace.txt

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/ggrid_index.h"
#include "gpusim/device.h"
#include "gpusim/device_set.h"
#include "roadnet/dimacs.h"
#include "server/query_server.h"
#include "server/shard_router.h"
#include "util/timer.h"
#include "workload/synthetic_network.h"
#include "workload/trace.h"

namespace {

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  add <object> <edge> <offset> <time>\n"
      "  remove <object> <time>\n"
      "  query <edge> <offset> <k> <time>\n"
      "  trim <time>\n"
      "  record <file> <objects> <f> <queries> <k>\n"
      "  replay <file>\n"
      "  stats\n"
      "  metrics\n"
      "  help\n"
      "  quit\n");
}

/// Dumps the full observability registry: Prometheus text to `out`, and —
/// when writing to a file — the one-line JSON beside it (FILE.json).
bool DumpMetrics(const std::string& text, const std::string& json,
                 const std::string& path) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
  const std::string json_path = path + ".json";
  f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::printf("metrics written to %s and %s\n", path.c_str(),
              json_path.c_str());
  return true;
}

void PrintStats(gknn::server::QueryServer& server) {
  const auto& counters = server.index().counters();
  const auto& engine = server.index().engine_counters();
  const auto server_stats = server.stats();
  const auto mem = server.index().Memory();
  gknn::gpusim::DeviceSet& devices = server.index().device_set();
  unsigned long long h2d_bytes = 0, d2h_bytes = 0;
  unsigned long long fault_checks = 0, fault_injected = 0;
  for (uint32_t i = 0; i < devices.size(); ++i) {
    const auto totals = devices.device(i).ledger().totals();
    h2d_bytes += totals.h2d_bytes;
    d2h_bytes += totals.d2h_bytes;
    fault_checks += devices.device(i).fault_injector().total_checks();
    fault_injected += devices.device(i).fault_injector().total_injected();
  }
  std::printf(
      "updates=%llu tombstones=%llu queries=%llu cached_messages=%llu "
      "pending=%llu\n"
      "memory: cpu=%llu B gpu=%llu B total=%llu B\n"
      "device: kernels=%llu modeled_gpu=%.3f ms h2d=%llu B d2h=%llu B\n"
      "robustness: degraded=%d gpu_failures=%llu retries=%llu "
      "fallback_queries=%llu degraded_queries=%llu breaker_trips=%llu "
      "breaker_closes=%llu clean_fallbacks=%llu\n"
      "overload: admitted=%llu shed=%llu expired=%llu brownout=%llu "
      "inflight=%u queue_depth=%u\n"
      "faults: spec='%s' checks=%llu injected=%llu\n",
      static_cast<unsigned long long>(counters.updates_ingested),
      static_cast<unsigned long long>(counters.tombstones_written),
      static_cast<unsigned long long>(counters.queries_processed),
      static_cast<unsigned long long>(server.index().cached_messages()),
      static_cast<unsigned long long>(server.pending_updates()),
      static_cast<unsigned long long>(mem.cpu_total()),
      static_cast<unsigned long long>(mem.grid_gpu),
      static_cast<unsigned long long>(mem.total()),
      static_cast<unsigned long long>(devices.TotalKernelLaunches()),
      devices.TotalClockSeconds() * 1e3, h2d_bytes, d2h_bytes,
      server_stats.degraded ? 1 : 0,
      static_cast<unsigned long long>(server_stats.gpu_failures +
                                      engine.gpu_failures),
      static_cast<unsigned long long>(server_stats.retries),
      static_cast<unsigned long long>(server_stats.fallback_queries +
                                      engine.fallback_queries),
      static_cast<unsigned long long>(server_stats.degraded_queries),
      static_cast<unsigned long long>(server_stats.breaker_trips),
      static_cast<unsigned long long>(server_stats.breaker_closes),
      static_cast<unsigned long long>(counters.clean_fallbacks),
      static_cast<unsigned long long>(server_stats.admitted_queries),
      static_cast<unsigned long long>(server_stats.shed_queries),
      static_cast<unsigned long long>(server_stats.expired_queries),
      static_cast<unsigned long long>(server_stats.brownout_queries),
      server.inflight_queries(), server.admission_queue_depth(),
      devices.device(0).fault_injector().spec().c_str(), fault_checks,
      fault_injected);
  // With more than one device, one placement line per fault domain.
  if (devices.size() > 1) {
    for (uint32_t i = 0; i < devices.size(); ++i) {
      const auto sched = server.index().scheduler().device_stats(i);
      std::printf(
          "  device %u: kernels=%llu modeled_gpu=%.3f ms leases=%llu "
          "errors=%llu unhealthy=%d\n",
          i,
          static_cast<unsigned long long>(devices.device(i).kernel_launches()),
          devices.device(i).ClockSeconds() * 1e3,
          static_cast<unsigned long long>(sched.leases),
          static_cast<unsigned long long>(sched.device_errors),
          sched.unhealthy ? 1 : 0);
    }
  }
}

/// Router-mode stats block: the router's logical-query counters, the
/// fleet-wide aggregate, then one degradation line per shard.
void PrintRouterStats(gknn::server::ShardRouter& router) {
  const auto rs = router.router_stats();
  const auto agg = router.AggregateStats();
  std::printf(
      "router: shards=%u queries=%llu admitted=%llu shed=%llu "
      "expired=%llu brownout=%llu\n"
      "fanout: home_shards=%llu refine_shards=%llu "
      "border_refinements=%llu full_fanouts=%llu\n"
      "routing: updates=%llu cross_shard_moves=%llu pending=%llu "
      "applied=%llu\n"
      "aggregate: degraded=%d gpu_failures=%llu retries=%llu "
      "fallback_queries=%llu degraded_queries=%llu breaker_trips=%llu\n",
      router.num_shards(), static_cast<unsigned long long>(rs.queries),
      static_cast<unsigned long long>(rs.admitted_queries),
      static_cast<unsigned long long>(rs.shed_queries),
      static_cast<unsigned long long>(rs.expired_queries),
      static_cast<unsigned long long>(rs.brownout_queries),
      static_cast<unsigned long long>(rs.fanout_shards),
      static_cast<unsigned long long>(rs.refine_shards),
      static_cast<unsigned long long>(rs.border_refinements),
      static_cast<unsigned long long>(rs.full_fanouts),
      static_cast<unsigned long long>(rs.routed_updates),
      static_cast<unsigned long long>(rs.cross_shard_moves),
      static_cast<unsigned long long>(router.pending_updates()),
      static_cast<unsigned long long>(router.applied_updates()),
      agg.degraded ? 1 : 0,
      static_cast<unsigned long long>(agg.gpu_failures),
      static_cast<unsigned long long>(agg.retries),
      static_cast<unsigned long long>(agg.fallback_queries),
      static_cast<unsigned long long>(agg.degraded_queries),
      static_cast<unsigned long long>(agg.breaker_trips));
  for (uint32_t s = 0; s < router.num_shards(); ++s) {
    const auto stats = router.ShardStats(s);
    std::printf(
        "  shard %u: degraded=%d gpu_failures=%llu fallback=%llu "
        "kernels=%llu modeled_gpu=%.3f ms pending=%llu\n",
        s, stats.degraded ? 1 : 0,
        static_cast<unsigned long long>(stats.gpu_failures),
        static_cast<unsigned long long>(stats.fallback_queries),
        static_cast<unsigned long long>(router.device(s).kernel_launches()),
        router.device(s).ClockSeconds() * 1e3,
        static_cast<unsigned long long>(router.shard(s).pending_updates()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gknn;  // NOLINT(build/namespaces)

  std::string graph_path;
  std::string fault_spec;
  bool have_fault_spec = false;
  bool stats_on_exit = false;
  bool metrics_on_exit = false;
  std::string metrics_path;
  uint32_t synthetic = 0;
  uint32_t num_shards = 1;
  uint32_t num_devices = 1;
  uint32_t query_threads = 0;
  double deadline_ms = 0;
  uint32_t max_inflight = 0;
  uint32_t max_queued = 0;
  bool brownout = false;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--graph=", 0) == 0) {
      graph_path = arg.substr(8);
    } else if (arg.rfind("--synthetic=", 0) == 0) {
      synthetic = static_cast<uint32_t>(std::stoul(arg.substr(12)));
    } else if (arg.rfind("--shards=", 0) == 0) {
      num_shards = static_cast<uint32_t>(std::stoul(arg.substr(9)));
      if (num_shards == 0) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 1;
      }
    } else if (arg.rfind("--devices=", 0) == 0) {
      num_devices = static_cast<uint32_t>(std::stoul(arg.substr(10)));
      if (num_devices == 0) {
        std::fprintf(stderr, "--devices must be >= 1\n");
        return 1;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      query_threads = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      deadline_ms = std::stod(arg.substr(14));
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      max_inflight = static_cast<uint32_t>(std::stoul(arg.substr(15)));
    } else if (arg.rfind("--max-queued=", 0) == 0) {
      max_queued = static_cast<uint32_t>(std::stoul(arg.substr(13)));
    } else if (arg == "--brownout") {
      brownout = true;
    } else if (arg.rfind("--faults=", 0) == 0) {
      fault_spec = arg.substr(9);
      have_fault_spec = true;
    } else if (arg == "--stats") {
      stats_on_exit = true;
    } else if (arg == "--metrics") {
      metrics_on_exit = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_on_exit = true;
      metrics_path = arg.substr(10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 1;
    }
  }
  if (graph_path.empty() && synthetic == 0) synthetic = 2000;

  util::Result<roadnet::Graph> graph =
      graph_path.empty()
          ? workload::GenerateSyntheticRoadNetwork(
                {.num_vertices = synthetic, .seed = seed})
          : roadnet::ReadDimacsGraph(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %u vertices, %u arcs\n", graph->num_vertices(),
              graph->num_edges());

  gpusim::DeviceConfig device_config;
  if (have_fault_spec) {
    const auto parsed = gpusim::FaultInjector::Parse(fault_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid --faults spec: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    device_config.faults = fault_spec;
  }
  server::ServerOptions server_options;
  server_options.query_threads = query_threads;
  server_options.default_deadline_ms = deadline_ms;
  server_options.max_inflight = max_inflight;
  server_options.max_queued = max_queued;
  server_options.brownout = brownout;
  std::unique_ptr<server::ShardRouter> router;
  std::unique_ptr<gpusim::DeviceSet> devices;  // single-server mode only
  std::unique_ptr<server::QueryServer> single;
  if (num_shards > 1) {
    server::ShardRouterOptions router_options;
    router_options.num_shards = num_shards;
    router_options.devices_per_shard = num_devices;
    router_options.server = server_options;
    router_options.device = device_config;
    auto built = server::ShardRouter::Create(&*graph, core::GGridOptions{},
                                             router_options);
    if (!built.ok()) {
      std::fprintf(stderr, "failed to build shard router: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    router = std::move(built).ValueOrDie();
    std::printf(
        "ShardRouter ready: %u shards x %u devices over %u cells (psi=%u). "
        "Type 'help' for commands.\n",
        router->num_shards(), num_devices,
        router->shard(0).index().grid().num_cells(),
        router->shard(0).index().grid().psi());
    if (router->device(0).fault_injector().armed()) {
      std::printf("fault injection armed on every shard: %s\n",
                  router->device(0).fault_injector().spec().c_str());
    }
  } else {
    devices = std::make_unique<gpusim::DeviceSet>(num_devices, device_config);
    auto built = server::QueryServer::Create(&*graph, core::GGridOptions{},
                                             devices.get(), server_options);
    if (!built.ok()) {
      std::fprintf(stderr, "failed to build index: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    single = std::move(built).ValueOrDie();
    std::printf(
        "G-Grid ready: %u cells (psi=%u), %u device(s). Type 'help' for "
        "commands.\n",
        single->index().grid().num_cells(), single->index().grid().psi(),
        num_devices);
    if (devices->device(0).fault_injector().armed()) {
      std::printf("fault injection armed: %s\n",
                  devices->device(0).fault_injector().spec().c_str());
    }
  }

  // Every command below runs against whichever front end was built; the
  // router exposes the same Report/Deregister/QueryKnn surface as a
  // single-engine server (that equivalence is the point — see
  // tests/test_shard_differential.cc).
  const auto report = [&](core::ObjectId object, roadnet::EdgePoint position,
                          double time) {
    if (router != nullptr) {
      router->Report(object, position, time);
    } else {
      single->Report(object, position, time);
    }
  };
  const auto deregister = [&](core::ObjectId object, double time) {
    if (router != nullptr) {
      router->Deregister(object, time);
    } else {
      single->Deregister(object, time);
    }
  };
  const auto query_knn = [&](roadnet::EdgePoint location, uint32_t k,
                             double time) {
    return router != nullptr ? router->QueryKnn(location, k, time)
                             : single->QueryKnn(location, k, time);
  };
  const auto print_stats = [&] {
    if (router != nullptr) {
      PrintRouterStats(*router);
    } else {
      PrintStats(*single);
    }
  };
  const auto dump_metrics = [&](const std::string& path) {
    return router != nullptr
               ? DumpMetrics(router->MetricsPrometheus(),
                             router->MetricsJson(), path)
               : DumpMetrics(single->MetricsPrometheus(),
                             single->MetricsJson(), path);
  };

  bool had_error = false;
  char line[512];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    unsigned long long object = 0, edge = 0, offset = 0, k = 0;
    double time = 0;
    if (std::sscanf(line, "add %llu %llu %llu %lf", &object, &edge, &offset,
                    &time) == 4) {
      if (edge >= graph->num_edges() ||
          offset > graph->edge(static_cast<roadnet::EdgeId>(edge)).weight) {
        std::printf("error: invalid edge/offset\n");
        had_error = true;
        continue;
      }
      report(static_cast<core::ObjectId>(object),
             {static_cast<roadnet::EdgeId>(edge),
              static_cast<uint32_t>(offset)},
             time);
      std::printf("ok\n");
    } else if (std::sscanf(line, "remove %llu %lf", &object, &time) == 2) {
      deregister(static_cast<core::ObjectId>(object), time);
      std::printf("ok\n");
    } else if (std::sscanf(line, "query %llu %llu %llu %lf", &edge, &offset,
                           &k, &time) == 4) {
      auto result = query_knn({static_cast<roadnet::EdgeId>(edge),
                               static_cast<uint32_t>(offset)},
                              static_cast<uint32_t>(k), time);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        had_error = true;
        continue;
      }
      for (const auto& entry : *result) {
        std::printf("  object %u  distance %llu\n", entry.object,
                    static_cast<unsigned long long>(entry.distance));
      }
      std::printf("%zu result(s)\n", result->size());
    } else if (std::strncmp(line, "record ", 7) == 0) {
      char file[256];
      unsigned long long objects = 0, queries = 0, kk = 0;
      double freq = 1.0;
      if (std::sscanf(line, "record %255s %llu %lf %llu %llu", file,
                      &objects, &freq, &queries, &kk) != 5) {
        std::printf("usage: record <file> <objects> <f> <queries> <k>\n");
        continue;
      }
      workload::RecordOptions options;
      options.num_objects = static_cast<uint32_t>(objects);
      options.update_frequency_hz = freq;
      options.num_queries = static_cast<uint32_t>(queries);
      options.k = static_cast<uint32_t>(kk);
      options.seed = seed;
      const auto events = workload::RecordScenario(*graph, options);
      auto status = workload::WriteTrace(events, file);
      if (status.ok()) {
        std::printf("recorded %zu events to %s\n", events.size(), file);
      } else {
        std::printf("error: %s\n", status.ToString().c_str());
        had_error = true;
      }
    } else if (std::strncmp(line, "replay ", 7) == 0) {
      char file[256];
      if (std::sscanf(line, "replay %255s", file) != 1) {
        std::printf("usage: replay <file>\n");
        continue;
      }
      auto events = workload::ReadTrace(*graph, file);
      if (!events.ok()) {
        std::printf("error: %s\n", events.status().ToString().c_str());
        had_error = true;
        continue;
      }
      util::Timer replay_timer;
      uint32_t queries_run = 0;
      uint32_t query_errors = 0;
      for (const auto& e : *events) {
        switch (e.kind) {
          case workload::TraceEvent::Kind::kUpdate:
            report(e.object, e.position, e.time);
            break;
          case workload::TraceEvent::Kind::kRemove:
            deregister(e.object, e.time);
            break;
          case workload::TraceEvent::Kind::kQuery: {
            auto result = query_knn(e.position, e.k, e.time);
            if (!result.ok()) {
              std::printf("error: %s\n",
                          result.status().ToString().c_str());
              ++query_errors;
              had_error = true;
            } else {
              ++queries_run;
            }
            break;
          }
        }
      }
      std::printf("replayed %zu events (%u queries, %u errors) in %.1f ms\n",
                  events->size(), queries_run, query_errors,
                  replay_timer.ElapsedMillis());
    } else if (std::sscanf(line, "trim %lf", &time) == 1) {
      util::Status status = util::Status::OK();
      if (router != nullptr) {
        // Maintenance sweeps every shard; first failure wins.
        for (uint32_t s = 0; s < router->num_shards() && status.ok(); ++s) {
          status = router->shard(s).index().TrimCaches(time);
        }
      } else {
        status = single->index().TrimCaches(time);
      }
      if (status.ok()) {
        std::printf("ok\n");
      } else {
        std::printf("error: %s\n", status.ToString().c_str());
        had_error = true;
      }
    } else if (std::strncmp(line, "stats", 5) == 0) {
      print_stats();
    } else if (std::strncmp(line, "metrics", 7) == 0) {
      if (!dump_metrics("")) had_error = true;
    } else if (std::strncmp(line, "help", 4) == 0) {
      PrintHelp();
    } else if (std::strncmp(line, "quit", 4) == 0 ||
               std::strncmp(line, "exit", 4) == 0) {
      break;
    } else if (line[0] != '\n' && line[0] != '#') {
      std::printf("unrecognized command; type 'help'\n");
    }
  }
  if (stats_on_exit) print_stats();
  if (metrics_on_exit && !dump_metrics(metrics_path)) {
    had_error = true;
  }
  return had_error ? 1 : 0;
}
