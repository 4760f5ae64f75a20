// Unit tests for the ShardRouter's internals (docs/SHARDING.md): the
// deterministic cell->shard table, the top-k merge, the routing accessors,
// and the metrics fold's shard labelling. The end-to-end exactness proof
// lives in tests/test_shard_differential.cc; this file pins down the
// pieces it composes.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/brute_force.h"
#include "core/ggrid_index.h"
#include "obs/metrics.h"
#include "roadnet/partitioner.h"
#include "server/shard_router.h"
#include "util/rng.h"
#include "workload/synthetic_network.h"

namespace gknn::server {
namespace {

using core::KnnResultEntry;
using core::ObjectId;
using roadnet::EdgePoint;
using roadnet::Graph;

Graph MakeGraph(uint32_t num_vertices, uint64_t seed) {
  return std::move(workload::GenerateSyntheticRoadNetwork(
                       {.num_vertices = num_vertices, .seed = seed}))
      .ValueOrDie();
}

// --- AssignCellsToShards ----------------------------------------------------

roadnet::GridPartition MakePartition(const Graph& graph, uint64_t seed) {
  roadnet::PartitionOptions options;
  options.seed = seed;
  return std::move(
             roadnet::PartitionIntoGrid(graph, /*delta_c=*/64, options))
      .ValueOrDie();
}

TEST(AssignCellsToShardsTest, IsDeterministicAcrossSeedsAndRepeats) {
  const Graph graph = MakeGraph(280, 11);
  for (uint64_t seed : {1u, 7u, 42u}) {
    const auto partition = MakePartition(graph, seed);
    const auto a =
        std::move(roadnet::AssignCellsToShards(partition, 4)).ValueOrDie();
    const auto b =
        std::move(roadnet::AssignCellsToShards(partition, 4)).ValueOrDie();
    // Same partition in, same table out — the routing table is a pure
    // function of the partition, never of iteration order or time.
    EXPECT_EQ(a, b) << "partition seed " << seed;
  }
}

TEST(AssignCellsToShardsTest, CoversAllCellsWithContiguousZRanges) {
  const Graph graph = MakeGraph(300, 13);
  const auto partition = MakePartition(graph, 13);
  for (uint32_t num_shards : {1u, 2u, 4u, 8u}) {
    const auto table =
        std::move(roadnet::AssignCellsToShards(partition, num_shards))
            .ValueOrDie();
    ASSERT_EQ(table.size(), partition.num_cells);
    // Contiguous Z-ranges: the shard id never decreases along the
    // Z-ordered cell sequence, so each shard is one compact region.
    for (size_t c = 1; c < table.size(); ++c) {
      EXPECT_LE(table[c - 1], table[c]) << "cell " << c;
    }
    for (uint32_t shard : table) EXPECT_LT(shard, num_shards);
    EXPECT_EQ(table.front(), 0u);
  }
}

TEST(AssignCellsToShardsTest, BalancesVertexLoadAcrossShards) {
  const Graph graph = MakeGraph(400, 17);
  const auto partition = MakePartition(graph, 17);
  constexpr uint32_t kShards = 4;
  const auto table =
      std::move(roadnet::AssignCellsToShards(partition, kShards))
          .ValueOrDie();
  std::vector<uint64_t> shard_load(kShards, 0);
  std::vector<uint64_t> cell_load(partition.num_cells, 0);
  for (uint32_t cell : partition.cell_of_vertex) ++cell_load[cell];
  uint64_t max_cell = 0;
  for (uint32_t c = 0; c < partition.num_cells; ++c) {
    shard_load[table[c]] += cell_load[c];
    max_cell = std::max(max_cell, cell_load[c]);
  }
  // Greedy prefix cuts are within one cell of the ideal share: a shard
  // stops growing as soon as it reaches its quota, so it overshoots by
  // less than the largest single cell.
  const uint64_t ideal = graph.num_vertices() / kShards;
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_LE(shard_load[s], ideal + max_cell) << "shard " << s;
  }
  EXPECT_EQ(std::accumulate(shard_load.begin(), shard_load.end(),
                            uint64_t{0}),
            graph.num_vertices());
}

TEST(AssignCellsToShardsTest, MoreShardsThanCellsLeavesTrailingShardsEmpty) {
  const Graph graph = MakeGraph(120, 19);
  const auto partition = MakePartition(graph, 19);
  const uint32_t num_shards = partition.num_cells * 2;
  const auto table =
      std::move(roadnet::AssignCellsToShards(partition, num_shards))
          .ValueOrDie();
  for (uint32_t shard : table) EXPECT_LT(shard, num_shards);
}

TEST(AssignCellsToShardsTest, RejectsZeroShards) {
  const Graph graph = MakeGraph(120, 23);
  const auto partition = MakePartition(graph, 23);
  auto result = roadnet::AssignCellsToShards(partition, 0);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --- MergeTopK --------------------------------------------------------------

KnnResultEntry Entry(ObjectId object, roadnet::Distance distance) {
  return {.object = object, .distance = distance};
}

TEST(MergeTopKTest, MergesInDistanceThenObjectOrder) {
  const auto merged = ShardRouter::MergeTopK(
      {{Entry(5, 30), Entry(1, 50)}, {Entry(9, 10), Entry(2, 40)}}, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], Entry(9, 10));
  EXPECT_EQ(merged[1], Entry(5, 30));
  EXPECT_EQ(merged[2], Entry(2, 40));
}

TEST(MergeTopKTest, DeduplicatesObjectsKeepingTheirBestEntry) {
  // The same object can surface from two shards mid-move (the departure
  // not yet drained on the old shard); the merge must keep one entry —
  // the better one — and still fill k from the rest.
  const auto merged = ShardRouter::MergeTopK(
      {{Entry(7, 25), Entry(3, 60)}, {Entry(7, 15), Entry(4, 35)}}, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], Entry(7, 15));
  EXPECT_EQ(merged[1], Entry(4, 35));
  EXPECT_EQ(merged[2], Entry(3, 60));
}

TEST(MergeTopKTest, BreaksDistanceTiesByObjectId) {
  const auto merged = ShardRouter::MergeTopK(
      {{Entry(8, 20)}, {Entry(2, 20)}, {Entry(5, 20)}}, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].object, 2u);
  EXPECT_EQ(merged[1].object, 5u);
  EXPECT_EQ(merged[2].object, 8u);
}

TEST(MergeTopKTest, KLargerThanTotalYieldsEveryDistinctObject) {
  const auto merged = ShardRouter::MergeTopK(
      {{Entry(1, 10), Entry(2, 20)}, {Entry(1, 12)}}, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0], Entry(1, 10));
  EXPECT_EQ(merged[1], Entry(2, 20));
}

TEST(MergeTopKTest, EmptyInputsYieldEmptyOutput) {
  EXPECT_TRUE(ShardRouter::MergeTopK({}, 5).empty());
  EXPECT_TRUE(ShardRouter::MergeTopK({{}, {}}, 5).empty());
}

// --- Router construction & routing accessors --------------------------------

TEST(ShardRouterTest, CreateRejectsBadOptions) {
  const Graph graph = MakeGraph(150, 29);
  ShardRouterOptions options;
  options.num_shards = 0;
  auto result = ShardRouter::Create(&graph, core::GGridOptions{}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ShardRouterTest, RoutingTableIsDeterministicAndConsistent) {
  const Graph graph = MakeGraph(260, 37);
  ShardRouterOptions options;
  options.num_shards = 4;
  auto a = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                         options))
               .ValueOrDie();
  auto b = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                         options))
               .ValueOrDie();
  // Two routers over the same graph and options route identically — the
  // table is reproducible, not an artifact of construction order.
  EXPECT_EQ(a->cell_to_shard(), b->cell_to_shard());
  const core::GraphGrid& grid = a->shard(0).index().grid();
  for (roadnet::EdgeId e = 0; e < graph.num_edges(); e += 7) {
    const EdgePoint point{e, 0};
    EXPECT_EQ(a->ShardOfPoint(point),
              a->ShardOfCell(grid.CellOfEdge(e)));
    EXPECT_EQ(a->ShardOfPoint(point), b->ShardOfPoint(point));
  }
}

TEST(ShardRouterTest, SingleQueryAgreesWithBruteForce) {
  const Graph graph = MakeGraph(240, 43);
  ShardRouterOptions options;
  options.num_shards = 4;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              options))
                    .ValueOrDie();
  baselines::BruteForce oracle(&graph);
  util::Rng rng(43);
  for (ObjectId o = 0; o < 30; ++o) {
    const EdgePoint position{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    router->Report(o, position, 1.0);
    oracle.Ingest(o, position, 1.0);
  }
  for (int q = 0; q < 20; ++q) {
    const EdgePoint location{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    auto got = router->QueryKnn(location, 5, 2.0);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = oracle.QueryKnn(location, 5, 2.0);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size()) << "query " << q;
    for (size_t r = 0; r < want->size(); ++r) {
      EXPECT_EQ((*got)[r].distance, (*want)[r].distance)
          << "query " << q << " rank " << r;
    }
  }
  // One home-shard query per routed query, even with the sparse fleet
  // here (about 7 objects per shard for k = 5); every other shard asked
  // counts in refine_shards.
  const RouterStats stats = router->router_stats();
  EXPECT_EQ(stats.fanout_shards, stats.queries);
}

TEST(ShardRouterTest, ValidationErrorsMatchSingleEngineText) {
  const Graph graph = MakeGraph(150, 47);
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              options))
                    .ValueOrDie();
  auto k0 = router->QueryKnn({0, 0}, 0, 1.0);
  EXPECT_FALSE(k0.ok());
  EXPECT_TRUE(k0.status().IsInvalidArgument());
  auto bad_edge = router->QueryKnn({graph.num_edges(), 0}, 3, 1.0);
  EXPECT_FALSE(bad_edge.ok());
  auto bad_offset =
      router->QueryKnn({0, graph.edge(0).weight + 1}, 3, 1.0);
  EXPECT_FALSE(bad_offset.ok());
}

TEST(ShardRouterTest, PoisonUpdatesMatchSingleEngineSemantics) {
  const Graph graph = MakeGraph(200, 59);
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              options))
                    .ValueOrDie();
  router->Report(1, {0, 0}, 1.0);
  ASSERT_TRUE(router->QueryKnn({0, 0}, 1, 1.0).ok());

  // An off-network position is forwarded to the object's current shard
  // unrouted: like a single engine, the next query to drain it surfaces
  // the typed error once, the poison is dropped, and the object keeps
  // serving from its last good position.
  router->Report(1, {graph.num_edges() + 5, 0}, 2.0);
  auto poisoned = router->QueryKnn({0, 0}, 1, 2.0);
  EXPECT_FALSE(poisoned.ok());
  EXPECT_TRUE(poisoned.status().IsInvalidArgument())
      << poisoned.status().ToString();
  auto after = router->QueryKnn({0, 0}, 1, 2.0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].object, 1u);
  EXPECT_EQ((*after)[0].distance, 0u);

  // The poison did not move the object between shards.
  EXPECT_EQ(router->router_stats().cross_shard_moves, 0u);
}

// --- Metrics fold -----------------------------------------------------------

TEST(ShardRouterTest, MetricsFoldLabelsEveryShardAndSumsMatch) {
  if (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (GKNN_OBS=0)";
  }
  const Graph graph = MakeGraph(220, 53);
  ShardRouterOptions options;
  options.num_shards = 2;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              options))
                    .ValueOrDie();
  util::Rng rng(53);
  for (ObjectId o = 0; o < 24; ++o) {
    router->Report(
        o,
        {static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0},
        1.0);
  }
  for (int q = 0; q < 10; ++q) {
    ASSERT_TRUE(
        router
            ->QueryKnn({static_cast<roadnet::EdgeId>(
                            rng.NextBounded(graph.num_edges())),
                        0},
                       4, 2.0)
            .ok());
  }
  const auto snapshot = router->MetricsSnapshot();

  // The fold re-exposes each shard's counters under a shard="i" label and
  // their element-wise sum under the unlabelled name.
  const std::string base = "gknn_server_admitted_queries";
  double sum = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    const std::string labelled =
        base + "{shard=\"" + std::to_string(s) + "\"}";
    auto it = snapshot.gauges.find(labelled);
    ASSERT_NE(it, snapshot.gauges.end()) << labelled;
    sum += it->second;
  }
  auto total = snapshot.gauges.find(base);
  ASSERT_NE(total, snapshot.gauges.end());
  EXPECT_EQ(total->second, sum);
  // Every logical query fanned out to >= 1 shard query.
  EXPECT_GE(sum, 10.0);

  // A metric that already carries labels gets the shard label appended
  // inside its label set, not a second {...} block.
  bool found_compound = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.find(",shard=\"") != std::string::npos) {
      found_compound = true;
      EXPECT_EQ(std::count(name.begin(), name.end(), '{'), 1) << name;
      EXPECT_EQ(std::count(name.begin(), name.end(), '}'), 1) << name;
    }
  }
  EXPECT_TRUE(found_compound)
      << "expected at least one folded metric with compound labels";

  // Router-level counters ride along.
  ASSERT_NE(snapshot.gauges.find("gknn_router_shards"),
            snapshot.gauges.end());
  EXPECT_EQ(snapshot.gauges.at("gknn_router_shards"), 2.0);
  EXPECT_EQ(snapshot.gauges.at("gknn_router_queries"), 10.0);

  // The Prometheus rendering parses as one sample per folded gauge.
  const std::string text = router->MetricsPrometheus();
  EXPECT_NE(text.find("gknn_router_queries"), std::string::npos);
}

}  // namespace
}  // namespace gknn::server
