#ifndef SERVEBENCH_ORACLE_H_
#define SERVEBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "roadnet/graph.h"

namespace servebench {

/// The benchmark's own answer key. It shares no code with the program's
/// query path: it builds its own adjacency from the graph's public edge
/// list and runs a textbook Dijkstra with std::priority_queue.
///
/// Distances follow the paper's model: a point <e, d> on the directed edge
/// e = (u -> v) reaches v after weight(e) - d, and reaches a point <e, d'>
/// on its own edge directly when d' >= d. An object at <e', d'> with
/// e' = (a -> b) is at dist(a) + d' otherwise. Answers are ordered by
/// (distance, object id), the program's documented tie order
/// (core::KnnResultEntry::operator<).
class Oracle {
 public:
  explicit Oracle(const gknn::roadnet::Graph& graph);

  /// Network distance from `from` to every vertex (kInfiniteDistance when
  /// unreachable).
  std::vector<gknn::roadnet::Distance> VertexDistances(
      gknn::roadnet::EdgePoint from) const;

  /// The first min(k, reachable objects) of every object in `positions`
  /// (indexed by object id), sorted by (distance, object).
  std::vector<gknn::core::KnnResultEntry> Knn(
      gknn::roadnet::EdgePoint from, uint32_t k,
      const std::vector<gknn::roadnet::EdgePoint>& positions) const;

  /// Every object within `radius` (inclusive), sorted by (distance, object).
  std::vector<gknn::core::KnnResultEntry> Range(
      gknn::roadnet::EdgePoint from, gknn::roadnet::Distance radius,
      const std::vector<gknn::roadnet::EdgePoint>& positions) const;

  /// True when every vertex reaches every other one, so every registered
  /// object is reachable from every query point.
  bool strongly_connected() const { return strongly_connected_; }

 private:
  std::vector<gknn::core::KnnResultEntry> AllReachable(
      gknn::roadnet::EdgePoint from,
      const std::vector<gknn::roadnet::EdgePoint>& positions) const;

  struct Arc {
    uint32_t target;
    uint32_t weight;
  };
  uint32_t num_vertices_;
  std::vector<gknn::roadnet::Edge> edges_;
  std::vector<std::vector<Arc>> out_;
  bool strongly_connected_ = false;
};

/// Runs the oracle on a hand-built five-vertex graph whose distances are
/// worked out by hand. Returns an empty string on success, otherwise a
/// description of the first disagreement.
std::string OracleSelfTest();

}  // namespace servebench

#endif  // SERVEBENCH_ORACLE_H_
