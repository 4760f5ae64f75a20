// Differential proof of the ShardRouter's exactness (docs/SHARDING.md):
// sharding the objects of one logical road network across N engines must
// be *invisible* in the answers. A seeded generator drives epochs of
// updates; inside each epoch several query threads race the router (and
// the per-shard lazy cleaning they trigger), and every recorded answer
// must be bit-identical to a single-engine twin replaying the same trace
// single-threaded, and exact against a brute-force oracle.
//
// The matrix covers shard counts {1, 2, 4, 8} x three trace seeds, so the
// router's one-round protocol is exercised with no border at all (N=1), a
// single border, and borders most queries' rings straddle (N=8 on a small
// graph). This binary is part of the TSan CI shard and FAULT_TOLERANT:
// the fault matrix replays it under device-error storms hitting every
// shard at once.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "baselines/brute_force.h"
#include "core/ggrid_index.h"
#include "gpusim/device.h"
#include "server/query_server.h"
#include "server/shard_router.h"
#include "util/rng.h"
#include "workload/synthetic_network.h"

namespace gknn::server {
namespace {

using core::KnnResultEntry;
using core::ObjectId;
using roadnet::EdgePoint;
using roadnet::Graph;

// --- Seeded trace generator (same shape as test_concurrent_differential;
// off-network poison updates are exercised serially in test_shard_router,
// because a poison's error deterministically surfaces on the *next* query
// to drain it — schedule-dependent under racing threads) ---------------------

struct UpdateEvent {
  ObjectId object;
  EdgePoint position;
  bool remove;
};

struct Epoch {
  double time;
  std::vector<UpdateEvent> updates;
  std::vector<EdgePoint> queries;
};

std::vector<Epoch> GenerateTrace(const Graph& graph, uint32_t num_objects,
                                 uint32_t num_epochs, uint32_t num_queries,
                                 uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Epoch> epochs(num_epochs);
  for (uint32_t e = 0; e < num_epochs; ++e) {
    Epoch& epoch = epochs[e];
    epoch.time = 1.0 + e;
    for (ObjectId o = 0; o < num_objects; ++o) {
      const uint32_t dice = static_cast<uint32_t>(rng.NextBounded(10));
      if (dice == 0 && e > 0) {
        epoch.updates.push_back({o, {}, /*remove=*/true});
      } else if (dice < 8) {
        const auto edge =
            static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges()));
        epoch.updates.push_back({o, {edge, 0}, /*remove=*/false});
      }  // else: the object stays silent this epoch
    }
    for (uint32_t q = 0; q < num_queries; ++q) {
      const auto edge =
          static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges()));
      epoch.queries.push_back({edge, 0});
    }
  }
  return epochs;
}

/// Applies one epoch's updates to the router and keeps the oracle's view
/// in `positions`.
void ApplyUpdates(ShardRouter* router,
                  std::map<ObjectId, EdgePoint>* positions,
                  const Epoch& epoch) {
  for (const UpdateEvent& u : epoch.updates) {
    if (u.remove) {
      router->Deregister(u.object, epoch.time);
      positions->erase(u.object);
    } else {
      router->Report(u.object, u.position, epoch.time);
      (*positions)[u.object] = u.position;
    }
  }
}

void ApplyUpdates(QueryServer* server, const Epoch& epoch) {
  for (const UpdateEvent& u : epoch.updates) {
    if (u.remove) {
      server->Deregister(u.object, epoch.time);
    } else {
      server->Report(u.object, u.position, epoch.time);
    }
  }
}

/// One epoch's queries fanned over racing threads, each issuing full
/// logical router queries (admission, fan-out, merge, refinement).
std::vector<std::vector<KnnResultEntry>> RaceQueries(
    ShardRouter* router, const Epoch& epoch, uint32_t k,
    uint32_t num_threads) {
  std::vector<std::vector<KnnResultEntry>> results(epoch.queries.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = t; i < epoch.queries.size(); i += num_threads) {
        auto r = router->QueryKnn(epoch.queries[i], k, epoch.time);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        results[i] = std::move(r).ValueOrDie();
      }
    });
  }
  go.store(true);
  for (auto& thread : threads) thread.join();
  return results;
}

class ShardDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(ShardDifferentialTest, ShardedAnswersMatchSingleEngineAndOracle) {
  const auto [num_shards, seed] = GetParam();
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 350, .seed = 31}))
                   .ValueOrDie();
  constexpr uint32_t kObjects = 48;
  constexpr uint32_t kEpochs = 4;
  constexpr uint32_t kQueriesPerEpoch = 12;
  constexpr uint32_t kQueryThreads = 3;
  constexpr uint32_t kK = 6;
  const auto trace =
      GenerateTrace(graph, kObjects, kEpochs, kQueriesPerEpoch, seed);

  ShardRouterOptions router_options;
  router_options.num_shards = num_shards;
  auto router = std::move(ShardRouter::Create(&graph, core::GGridOptions{},
                                              router_options))
                    .ValueOrDie();
  ASSERT_EQ(router->num_shards(), num_shards);

  // Single-engine twin: same trace, one engine, one thread.
  gpusim::Device twin_device;
  auto twin = std::move(QueryServer::Create(&graph, core::GGridOptions{},
                                            &twin_device))
                  .ValueOrDie();
  std::map<ObjectId, EdgePoint> positions;  // oracle's view

  for (uint32_t e = 0; e < kEpochs; ++e) {
    const Epoch& epoch = trace[e];
    ApplyUpdates(router.get(), &positions, epoch);
    ApplyUpdates(twin.get(), epoch);

    const auto sharded = RaceQueries(router.get(), epoch, kK, kQueryThreads);

    baselines::BruteForce oracle(&graph);
    for (const auto& [object, position] : positions) {
      oracle.Ingest(object, position, epoch.time);
    }

    for (size_t i = 0; i < epoch.queries.size(); ++i) {
      auto serial = twin->QueryKnn(epoch.queries[i], kK, epoch.time);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      auto want = oracle.QueryKnn(epoch.queries[i], kK, epoch.time);
      ASSERT_TRUE(want.ok());

      const auto& got = sharded[i];
      // Bit-identical to the single-engine twin: same objects, same
      // distances, same order. The engine's (distance, object) tie-break
      // makes the exact answer unique, so neither the shard borders nor
      // the thread schedule may show through.
      ASSERT_EQ(got.size(), serial->size())
          << "shards=" << num_shards << " epoch " << e << " query " << i;
      for (size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].object, (*serial)[r].object)
            << "shards=" << num_shards << " epoch " << e << " query " << i
            << " rank " << r;
        EXPECT_EQ(got[r].distance, (*serial)[r].distance)
            << "shards=" << num_shards << " epoch " << e << " query " << i
            << " rank " << r;
      }
      // And exact against the oracle.
      ASSERT_EQ(got.size(), want->size())
          << "shards=" << num_shards << " epoch " << e << " query " << i;
      for (size_t r = 0; r < want->size(); ++r) {
        EXPECT_EQ(got[r].distance, (*want)[r].distance)
            << "shards=" << num_shards << " epoch " << e << " query " << i
            << " rank " << r;
      }
    }
  }

  // Every update was routed exactly once, and every object the oracle
  // still tracks is somewhere in the shards.
  const RouterStats stats = router->router_stats();
  uint64_t updates_in_trace = 0;
  for (const Epoch& epoch : trace) updates_in_trace += epoch.updates.size();
  EXPECT_EQ(stats.routed_updates, updates_in_trace);
  if (num_shards == 1) {
    EXPECT_EQ(stats.cross_shard_moves, 0u);
    EXPECT_EQ(stats.border_refinements, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardMatrix, ShardDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(uint64_t{101}, uint64_t{202},
                                         uint64_t{303})),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The batch path runs the same logical queries through the router's
// thread pool; answers must equal the one-at-a-time path exactly.
TEST(ShardDifferentialTest, BatchPathMatchesSerialPath) {
  auto graph = std::move(workload::GenerateSyntheticRoadNetwork(
                             {.num_vertices = 300, .seed = 77}))
                   .ValueOrDie();
  ShardRouterOptions options;
  options.num_shards = 4;
  options.server.query_threads = 3;
  auto router =
      std::move(ShardRouter::Create(&graph, core::GGridOptions{}, options))
          .ValueOrDie();
  util::Rng rng(7);
  for (ObjectId o = 0; o < 40; ++o) {
    router->Report(
        o,
        {static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())), 0},
        1.0);
  }
  std::vector<EdgePoint> queries;
  for (int q = 0; q < 24; ++q) {
    queries.push_back(
        {static_cast<roadnet::EdgeId>(rng.NextBounded(graph.num_edges())),
         0});
  }
  auto batch = router->QueryKnnBatch(queries, /*k=*/5, /*t_now=*/2.0);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto serial = router->QueryKnn(queries[i], 5, 2.0);
    ASSERT_TRUE(serial.ok());
    ASSERT_EQ((*batch)[i].size(), serial->size()) << "query " << i;
    for (size_t r = 0; r < serial->size(); ++r) {
      EXPECT_EQ((*batch)[i][r].object, (*serial)[r].object)
          << "query " << i << " rank " << r;
      EXPECT_EQ((*batch)[i][r].distance, (*serial)[r].distance)
          << "query " << i << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace gknn::server
