#include "server/shard_router.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/graph_grid.h"
#include "roadnet/dijkstra.h"
#include "roadnet/partitioner.h"
#include "util/logging.h"

namespace gknn::server {

namespace {

/// `name` with a `shard="s"` label merged into its (possibly existing)
/// label set: `a_total` -> `a_total{shard="2"}` and
/// `a_total{path="gpu"}` -> `a_total{path="gpu",shard="2"}`.
std::string WithShardLabel(const std::string& name, uint32_t shard) {
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  if (!name.empty() && name.back() == '}') {
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

}  // namespace

ShardRouter::ShardRouter(const roadnet::Graph* graph,
                         const ShardRouterOptions& options)
    : graph_(graph),
      options_(options),
      query_pool_(options.server.query_threads == 0
                      ? std::make_unique<util::ThreadPool>(
                            util::ThreadPool::Inline{})
                      : std::make_unique<util::ThreadPool>(
                            options.server.query_threads,
                            options.server.max_queued)),
      gate_(options.server.max_inflight, options.server.max_queued,
            options.server.brownout),
      searches_([graph] {
        return std::make_unique<roadnet::BoundedDijkstra>(graph);
      }) {}

ShardRouter::~ShardRouter() = default;

util::Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const roadnet::Graph* graph, const core::GGridOptions& options,
    const ShardRouterOptions& router_options) {
  if (router_options.num_shards == 0) {
    return util::Status::InvalidArgument("num_shards must be positive");
  }
  std::unique_ptr<ShardRouter> router(
      new ShardRouter(graph, router_options));

  // Each shard runs with admission off, no default budget, and an inline
  // pool: the router applies one admission decision, one deadline, and
  // one brownout signal per *logical* query, and its own pool provides
  // the batch parallelism. Retry/breaker knobs pass through so each shard
  // degrades independently when its device dies.
  ServerOptions shard_options = router_options.server;
  shard_options.query_threads = 0;
  shard_options.max_inflight = 0;
  shard_options.max_queued = 0;
  shard_options.default_deadline_ms = 0;
  shard_options.brownout = false;  // pressure arrives via QueryKnnRouted

  // Shard 0 partitions the graph; the others share its immutable grid
  // (each index holds a reference, so no destruction order can leave it
  // dangling) and mirror it onto their own devices.
  const uint32_t devices_per_shard =
      std::max<uint32_t>(1, router_options.devices_per_shard);
  for (uint32_t s = 0; s < router_options.num_shards; ++s) {
    router->device_sets_.push_back(std::make_unique<gpusim::DeviceSet>(
        devices_per_shard, router_options.device));
    gpusim::DeviceSet* devices = router->device_sets_.back().get();
    GKNN_ASSIGN_OR_RETURN(
        std::unique_ptr<QueryServer> shard,
        s == 0 ? QueryServer::Create(graph, options, devices, shard_options)
               : QueryServer::Create(router->grid_, options, devices,
                                     shard_options));
    if (s == 0) router->grid_ = shard->index().shared_grid();
    router->shards_.push_back(std::move(shard));
  }

  GKNN_ASSIGN_OR_RETURN(
      router->cell_to_shard_,
      roadnet::AssignCellsToShards(router->grid_->partition(),
                                   router_options.num_shards));

  return router;
}

uint32_t ShardRouter::ShardOfPoint(roadnet::EdgePoint point) const {
  return cell_to_shard_[grid_->CellOfEdge(point.edge)];
}

void ShardRouter::Report(core::ObjectId object, roadnet::EdgePoint position,
                         double time) {
  stats_.routed_updates.fetch_add(1, std::memory_order_relaxed);
  const bool valid =
      position.edge < graph_->num_edges() &&
      position.offset <= graph_->edge(position.edge).weight;
  Stripe& stripe = StripeOf(object);
  util::lockdep::MutexLock lock(stripe.mutex);
  auto it = stripe.shard_of.find(object);
  if (!valid) {
    // Keep single-engine semantics for poison updates: the entry reaches
    // a drain, is dropped there with a warning, and the object (if any)
    // stays at its last good position — so it must not be re-routed.
    const uint32_t current = it != stripe.shard_of.end() ? it->second : 0;
    shards_[current]->Report(object, position, time);
    return;
  }
  const uint32_t target = cell_to_shard_[grid_->CellOfEdge(position.edge)];
  if (it == stripe.shard_of.end()) {
    stripe.shard_of.emplace(object, target);
  } else if (it->second != target) {
    // Cross-shard move: the old shard gets the departure, the new one the
    // report, both under this stripe lock so no query can observe the
    // object in two shards or in none via the routing table.
    shards_[it->second]->Deregister(object, time);
    it->second = target;
    stats_.cross_shard_moves.fetch_add(1, std::memory_order_relaxed);
  }
  shards_[target]->Report(object, position, time);
}

void ShardRouter::Deregister(core::ObjectId object, double time) {
  stats_.routed_updates.fetch_add(1, std::memory_order_relaxed);
  Stripe& stripe = StripeOf(object);
  util::lockdep::MutexLock lock(stripe.mutex);
  auto it = stripe.shard_of.find(object);
  if (it == stripe.shard_of.end()) {
    // Unknown object: same no-op Remove it would be on a single engine.
    shards_[0]->Deregister(object, time);
    return;
  }
  shards_[it->second]->Deregister(object, time);
  stripe.shard_of.erase(it);
}

std::vector<core::KnnResultEntry> ShardRouter::MergeTopK(
    const std::vector<std::vector<core::KnnResultEntry>>& per_shard,
    uint32_t k) {
  std::vector<core::KnnResultEntry> all;
  for (const auto& entries : per_shard) {
    all.insert(all.end(), entries.begin(), entries.end());
  }
  // The engine's deterministic total order; after the sort the first
  // occurrence of an object is its best entry, so the dedup is a single
  // seen-set pass.
  std::sort(all.begin(), all.end());
  std::vector<core::KnnResultEntry> merged;
  std::unordered_set<core::ObjectId> seen;
  for (const core::KnnResultEntry& entry : all) {
    if (merged.size() >= k) break;
    if (!seen.insert(entry.object).second) continue;
    merged.push_back(entry);
  }
  return merged;
}

util::Result<std::vector<core::KnnResultEntry>> ShardRouter::QueryKnn(
    roadnet::EdgePoint location, uint32_t k, double t_now) {
  return QueryKnnInternal(location, k, t_now,
                          options_.server.DefaultDeadline());
}

util::Result<std::vector<core::KnnResultEntry>>
ShardRouter::QueryKnnInternal(roadnet::EdgePoint location, uint32_t k,
                              double t_now, const util::Deadline& deadline) {
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  // admission.slot is held to the end of the query, error paths included.
  AdmissionGate::Admission admission = gate_.Admit(deadline);
  if (!admission.status.ok()) {
    if (admission.status.IsDeadlineExceeded()) {
      stats_.expired_queries.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_.shed_queries.fetch_add(1, std::memory_order_relaxed);
    }
    return admission.status;
  }
  stats_.admitted_queries.fetch_add(1, std::memory_order_relaxed);
  const bool pressure = admission.brownout;
  if (pressure) {
    stats_.brownout_queries.fetch_add(1, std::memory_order_relaxed);
  }

  auto finish = [&](util::Result<std::vector<core::KnnResultEntry>> result) {
    if (!result.ok() && result.status().IsDeadlineExceeded()) {
      stats_.expired_queries.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  };

  // An invalid location or k is forwarded to one shard unrouted so the
  // caller sees exactly the typed validation error a single-engine server
  // returns (routing needs a valid edge for CellOfEdge).
  if (k == 0 || location.edge >= graph_->num_edges() ||
      location.offset > graph_->edge(location.edge).weight) {
    return finish(
        shards_[0]->QueryKnnRouted(location, k, t_now, deadline, pressure));
  }

  // The home shard answers first: it owns the query's own edge, whose
  // objects are the one case the vertex-distance bound below does not
  // cover.
  const uint32_t home = ShardOfPoint(location);
  auto home_result =
      shards_[home]->QueryKnnRouted(location, k, t_now, deadline, pressure);
  if (!home_result.ok()) return finish(home_result.status());
  stats_.fanout_shards.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::vector<core::KnnResultEntry>> per_shard;
  per_shard.push_back(std::move(home_result).ValueOrDie());

  // With D the home shard's kth distance, an object homed in another shard
  // sits at distance >= dist(q, source(its edge)), and that source vertex
  // belongs to its shard; so a shard none of whose vertices is within D
  // holds no competitor, and this one round is exact. With fewer than k
  // home results there is no bound and every other shard is asked.
  const bool have_bound = per_shard[0].size() >= k;
  const roadnet::Distance bound = have_bound ? per_shard[0][k - 1].distance
                                             : roadnet::kInfiniteDistance;
  std::vector<uint32_t> others;
  if (num_shards() > 1) {
    std::vector<uint8_t> within(num_shards(), have_bound ? 0 : 1);
    if (have_bound) {
      bool expired = false;
      {
        util::ObjectPool<roadnet::BoundedDijkstra>::Lease search =
            searches_.Acquire();
        search->set_deadline(&deadline);
        search->RunFromPoint(
            location, bound, [&](roadnet::VertexId v, roadnet::Distance) {
              within[cell_to_shard_[grid_->CellOfVertex(v)]] = 1;
            });
        expired = search->cancelled();
        // The deadline belongs to this query; it must not survive into
        // the pool.
        search->set_deadline(nullptr);
      }
      if (expired) {
        return finish(util::Status::DeadlineExceeded(
            "route: query budget exhausted during border refinement"));
      }
    }
    for (uint32_t s = 0; s < num_shards(); ++s) {
      if (s != home && within[s]) others.push_back(s);
    }
  }
  if (!others.empty()) {
    stats_.border_refinements.fetch_add(1, std::memory_order_relaxed);
    stats_.refine_shards.fetch_add(others.size(), std::memory_order_relaxed);
  }
  for (uint32_t s : others) {
    // With a bound, a range probe of radius D (inclusive, so ties at D
    // still merge and lose or win on the object-id tie-break) costs the
    // border ring it touches; full kNN on a sparse remote region would
    // expand far past it. Without a bound the full kNN stands.
    auto result = have_bound ? shards_[s]->QueryRangeRouted(
                                   location, bound, t_now, deadline, pressure)
                             : shards_[s]->QueryKnnRouted(location, k, t_now,
                                                          deadline, pressure);
    if (!result.ok()) return finish(result.status());
    per_shard.push_back(std::move(result).ValueOrDie());
  }
  if (per_shard.size() == num_shards()) {
    stats_.full_fanouts.fetch_add(1, std::memory_order_relaxed);
  }
  return finish(MergeTopK(per_shard, k));
}

util::Result<std::vector<std::vector<core::KnnResultEntry>>>
ShardRouter::QueryKnnBatch(std::span<const roadnet::EdgePoint> locations,
                           uint32_t k, double t_now) {
  const util::Deadline deadline = options_.server.DefaultDeadline();
  return RunBatch(
      query_pool_.get(), locations, deadline,
      [&](roadnet::EdgePoint location) {
        return QueryKnnInternal(location, k, t_now, deadline);
      },
      &stats_.expired_queries, &stats_.shed_queries);
}

RouterStats ShardRouter::router_stats() const {
  RouterStats out;
  out.queries = stats_.queries.load(std::memory_order_relaxed);
  out.admitted_queries =
      stats_.admitted_queries.load(std::memory_order_relaxed);
  out.shed_queries = stats_.shed_queries.load(std::memory_order_relaxed);
  out.expired_queries =
      stats_.expired_queries.load(std::memory_order_relaxed);
  out.brownout_queries =
      stats_.brownout_queries.load(std::memory_order_relaxed);
  out.fanout_shards = stats_.fanout_shards.load(std::memory_order_relaxed);
  out.refine_shards = stats_.refine_shards.load(std::memory_order_relaxed);
  out.border_refinements =
      stats_.border_refinements.load(std::memory_order_relaxed);
  out.full_fanouts = stats_.full_fanouts.load(std::memory_order_relaxed);
  out.routed_updates =
      stats_.routed_updates.load(std::memory_order_relaxed);
  out.cross_shard_moves =
      stats_.cross_shard_moves.load(std::memory_order_relaxed);
  return out;
}

ServerStats ShardRouter::AggregateStats() const {
  ServerStats total;
  for (const auto& shard : shards_) {
    const ServerStats s = shard->stats();
    total.gpu_failures += s.gpu_failures;
    total.retries += s.retries;
    total.fallback_queries += s.fallback_queries;
    total.degraded_queries += s.degraded_queries;
    total.breaker_trips += s.breaker_trips;
    total.breaker_closes += s.breaker_closes;
    total.degraded = total.degraded || s.degraded;
    total.admitted_queries += s.admitted_queries;
    total.shed_queries += s.shed_queries;
    total.expired_queries += s.expired_queries;
    total.brownout_queries += s.brownout_queries;
  }
  return total;
}

uint64_t ShardRouter::pending_updates() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_updates();
  return total;
}

uint64_t ShardRouter::applied_updates() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->applied_updates();
  return total;
}

void ShardRouter::FoldRouterMetrics() {
  if (!obs::kEnabled) return;
  // Per-shard folds first (each takes that shard's writer lock and
  // releases it before the next — shard snapshots are mutually consistent
  // per shard, not across shards), then the relabelled copies and sums.
  std::map<std::string, double> sums;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const obs::RegistrySnapshot snapshot = shards_[s]->MetricsSnapshot();
    for (const auto& [name, value] : snapshot.counters) {
      router_registry_.GetGauge(WithShardLabel(name, s))
          ->Set(static_cast<double>(value));
      sums[name] += static_cast<double>(value);
    }
    for (const auto& [name, value] : snapshot.gauges) {
      router_registry_.GetGauge(WithShardLabel(name, s))->Set(value);
      sums[name] += value;
    }
  }
  for (const auto& [name, value] : sums) {
    router_registry_.GetGauge(name)->Set(value);
  }
  const RouterStats rs = router_stats();
  auto set = [&](std::string_view name, double value) {
    router_registry_.GetGauge(name)->Set(value);
  };
  set("gknn_router_shards", static_cast<double>(num_shards()));
  set("gknn_router_queries", static_cast<double>(rs.queries));
  set("gknn_router_admitted_queries",
      static_cast<double>(rs.admitted_queries));
  set("gknn_router_shed_queries", static_cast<double>(rs.shed_queries));
  set("gknn_router_expired_queries",
      static_cast<double>(rs.expired_queries));
  set("gknn_router_brownout_queries",
      static_cast<double>(rs.brownout_queries));
  set("gknn_router_fanout_shards", static_cast<double>(rs.fanout_shards));
  set("gknn_router_refine_shards", static_cast<double>(rs.refine_shards));
  set("gknn_router_border_refinements",
      static_cast<double>(rs.border_refinements));
  set("gknn_router_full_fanouts", static_cast<double>(rs.full_fanouts));
  set("gknn_router_routed_updates",
      static_cast<double>(rs.routed_updates));
  set("gknn_router_cross_shard_moves",
      static_cast<double>(rs.cross_shard_moves));
}

obs::RegistrySnapshot ShardRouter::MetricsSnapshot() {
  FoldRouterMetrics();
  return router_registry_.Snapshot();
}

std::string ShardRouter::MetricsPrometheus() {
  FoldRouterMetrics();
  return router_registry_.RenderPrometheusText();
}

std::string ShardRouter::MetricsJson() {
  FoldRouterMetrics();
  return router_registry_.RenderJson();
}

}  // namespace gknn::server
