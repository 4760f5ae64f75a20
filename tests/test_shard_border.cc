// Adversarial shard-border tests (docs/SHARDING.md): the configurations
// most likely to break the router's one-round query protocol are objects
// sitting exactly on shard boundaries, candidate rings straddling several
// shards, k exceeding what any single shard holds, and queries homed in
// shards that hold nothing at all. Each scenario is checked for exactness
// against the brute-force oracle, and the router's fan-out counters are
// asserted to show the protocol actually took the adversarial path (border
// probes or full fan-out), not that the home shard answered alone.

#include <gtest/gtest.h>

#include <vector>

#include "baselines/brute_force.h"
#include "core/ggrid_index.h"
#include "core/graph_grid.h"
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

std::unique_ptr<ShardRouter> MakeRouter(const Graph* graph,
                                        uint32_t num_shards) {
  ShardRouterOptions options;
  options.num_shards = num_shards;
  return std::move(
             ShardRouter::Create(graph, core::GGridOptions{}, options))
      .ValueOrDie();
}

/// Edges whose cell touches a cell owned by a *different* shard: the
/// positions where an object is as close to the border as the grid can
/// express.
std::vector<roadnet::EdgeId> BoundaryEdges(const Graph& graph,
                                           const ShardRouter& router) {
  const core::GraphGrid& grid =
      const_cast<ShardRouter&>(router).shard(0).index().grid();
  std::vector<roadnet::EdgeId> edges;
  for (roadnet::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const core::CellId cell = grid.CellOfEdge(e);
    const uint32_t shard = router.ShardOfCell(cell);
    for (core::CellId n : grid.NeighborCells(cell)) {
      if (router.ShardOfCell(n) != shard) {
        edges.push_back(e);
        break;
      }
    }
  }
  return edges;
}

void ExpectExact(ShardRouter* router, baselines::BruteForce* oracle,
                 EdgePoint location, uint32_t k, double t_now,
                 const char* label) {
  auto got = router->QueryKnn(location, k, t_now);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
  auto want = oracle->QueryKnn(location, k, t_now);
  ASSERT_TRUE(want.ok()) << label;
  ASSERT_EQ(got->size(), want->size()) << label;
  for (size_t r = 0; r < want->size(); ++r) {
    EXPECT_EQ((*got)[r].distance, (*want)[r].distance)
        << label << " rank " << r;
  }
}

TEST(ShardBorderTest, ObjectsClusteredOnShardBoundariesAreExact) {
  const Graph graph = MakeGraph(320, 61);
  auto router = MakeRouter(&graph, 4);
  const auto boundary = BoundaryEdges(graph, *router);
  ASSERT_FALSE(boundary.empty())
      << "4 shards on a 320-vertex network must share at least one border";

  // Every object sits on a boundary edge — the answer to any nearby query
  // is decided entirely by positions the sharding splits hairs over.
  baselines::BruteForce oracle(&graph);
  for (ObjectId o = 0; o < boundary.size() && o < 40; ++o) {
    const EdgePoint position{boundary[o], 0};
    router->Report(o, position, 1.0);
    oracle.Ingest(o, position, 1.0);
  }

  // Query from both sides of each border region (the boundary edges
  // themselves) and from random interior points.
  util::Rng rng(61);
  for (size_t i = 0; i < boundary.size() && i < 24; ++i) {
    ExpectExact(router.get(), &oracle, {boundary[i], 0}, 5, 2.0,
                "boundary query");
  }
  for (int q = 0; q < 16; ++q) {
    const EdgePoint location{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    ExpectExact(router.get(), &oracle, location, 5, 2.0, "interior query");
  }
}

TEST(ShardBorderTest, RingsSpanningSeveralShardsTriggerRefinement) {
  const Graph graph = MakeGraph(300, 67);
  auto router = MakeRouter(&graph, 4);

  // A sparse population spread over the whole network: any moderate k
  // forces the candidate ring across 2-4 shards, so the home shard cannot
  // answer alone everywhere and the border probes must fire.
  baselines::BruteForce oracle(&graph);
  util::Rng rng(67);
  for (ObjectId o = 0; o < 20; ++o) {
    const EdgePoint position{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    router->Report(o, position, 1.0);
    oracle.Ingest(o, position, 1.0);
  }

  for (int q = 0; q < 24; ++q) {
    const EdgePoint location{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    ExpectExact(router.get(), &oracle, location, 8, 2.0, "spanning ring");
  }

  const RouterStats stats = router->router_stats();
  // The sparse layout makes wide rings unavoidable: the queries left their
  // home shard, and at least one query needed a border probe or a full
  // fan-out.
  EXPECT_GT(stats.fanout_shards + stats.refine_shards, stats.queries)
      << "every ring fit one shard — the layout is not adversarial";
  EXPECT_GT(stats.border_refinements + stats.full_fanouts, 0u);
}

TEST(ShardBorderTest, KLargerThanAnyShardsPopulationMergesAcrossShards) {
  const Graph graph = MakeGraph(300, 71);
  auto router = MakeRouter(&graph, 4);

  // <= 6 objects per shard, k = 18: no shard can answer alone, so the
  // merge must stitch at least three shards' lists for every query.
  baselines::BruteForce oracle(&graph);
  util::Rng rng(71);
  std::vector<uint64_t> per_shard(router->num_shards(), 0);
  ObjectId next = 0;
  for (int attempt = 0; attempt < 4000 && next < 20; ++attempt) {
    const auto edge =
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges()));
    const uint32_t shard = router->ShardOfPoint({edge, 0});
    if (per_shard[shard] >= 6) continue;
    ++per_shard[shard];
    router->Report(next, {edge, 0}, 1.0);
    oracle.Ingest(next, {edge, 0}, 1.0);
    ++next;
  }
  ASSERT_EQ(next, 20u);

  for (int q = 0; q < 12; ++q) {
    const EdgePoint location{
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0};
    auto got = router->QueryKnn(location, 18, 2.0);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // k exceeds the population of any shard but not the network's: the
    // merged answer holds all reachable objects up to 18.
    auto want = oracle.QueryKnn(location, 18, 2.0);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got->size(), want->size()) << "query " << q;
    for (size_t r = 0; r < want->size(); ++r) {
      EXPECT_EQ((*got)[r].distance, (*want)[r].distance)
          << "query " << q << " rank " << r;
    }
  }
}

TEST(ShardBorderTest, QueryHomedInAnEmptyShardStillFindsEverything) {
  const Graph graph = MakeGraph(300, 73);
  auto router = MakeRouter(&graph, 4);

  // All objects crowd into one shard; queries are issued from every
  // *other* shard, including completely empty ones, so the home shard's
  // answer is empty or short and the "fewer than k" full fan-out must
  // fire.
  util::Rng rng(73);
  uint32_t crowded = 0;
  {
    const auto edge =
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges()));
    crowded = router->ShardOfPoint({edge, 0});
  }
  baselines::BruteForce oracle(&graph);
  ObjectId next = 0;
  for (int attempt = 0; attempt < 8000 && next < 12; ++attempt) {
    const auto edge =
        static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges()));
    if (router->ShardOfPoint({edge, 0}) != crowded) continue;
    router->Report(next, {edge, 0}, 1.0);
    oracle.Ingest(next, {edge, 0}, 1.0);
    ++next;
  }
  ASSERT_GT(next, 0u);

  uint32_t cross_shard_queries = 0;
  for (roadnet::EdgeId e = 0; e < graph.num_edges() && cross_shard_queries < 16;
       e += 3) {
    if (router->ShardOfPoint({e, 0}) == crowded) continue;
    ++cross_shard_queries;
    ExpectExact(router.get(), &oracle, {e, 0}, 6, 2.0, "empty-shard query");
  }
  ASSERT_GT(cross_shard_queries, 0u)
      << "all edges landed in one shard — nothing adversarial was tested";

  // k = 6 > the 0 objects those home shards hold, so every such query
  // had to leave its shard.
  const RouterStats stats = router->router_stats();
  EXPECT_GT(stats.fanout_shards + stats.refine_shards, stats.queries);
}

TEST(ShardBorderTest, ObjectsBouncingAcrossABorderStayConsistent) {
  const Graph graph = MakeGraph(280, 79);
  auto router = MakeRouter(&graph, 2);
  const auto boundary = BoundaryEdges(graph, *router);
  ASSERT_GE(boundary.size(), 2u);

  // Pick two boundary edges in different shards and bounce one object
  // A -> B -> A across the border; after each hop the object must exist
  // exactly once, at its latest position.
  roadnet::EdgeId a = boundary[0];
  roadnet::EdgeId b = 0;
  bool found = false;
  for (roadnet::EdgeId e : boundary) {
    if (router->ShardOfPoint({e, 0}) != router->ShardOfPoint({a, 0})) {
      b = e;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no boundary edge pair across the border";

  baselines::BruteForce oracle(&graph);
  const roadnet::EdgeId hops[] = {a, b, a, b, b, a};
  double t = 1.0;
  for (roadnet::EdgeId hop : hops) {
    router->Report(7, {hop, 0}, t);
    oracle.Ingest(7, {hop, 0}, t);  // overwrites: latest position wins
    ExpectExact(router.get(), &oracle, {hop, 0}, 1, t, "bounce query");
    t += 1.0;
  }
  const RouterStats stats = router->router_stats();
  // Each A->B or B->A hop is one cross-shard move (the B->B hop is not).
  EXPECT_EQ(stats.cross_shard_moves, 4u);

  router->Deregister(7, t);
  auto after = router->QueryKnn({a, 0}, 1, t);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

}  // namespace
}  // namespace gknn::server
