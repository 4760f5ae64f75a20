#ifndef GKNN_ROADNET_DIJKSTRA_H_
#define GKNN_ROADNET_DIJKSTRA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "roadnet/graph.h"
#include "util/deadline.h"
#include "util/min_heap.h"

namespace gknn::roadnet {

/// Single-source shortest path distances from `source` to every vertex,
/// following edge directions. Unreachable vertices get kInfiniteDistance.
/// This is the reference implementation used by the brute-force oracle and
/// by tests that validate GPU_SDist.
std::vector<Distance> ShortestPathsFrom(const Graph& graph, VertexId source);

/// Shortest path distances from a point located on an edge (the paper's
/// query location q = <e, d>): the search starts at the target vertex of
/// `point.edge` with initial cost weight - offset. Requires
/// point.offset <= weight(point.edge).
std::vector<Distance> ShortestPathsFromPoint(const Graph& graph,
                                             EdgePoint point);

/// Reusable bounded Dijkstra used by the CPU refinement step (paper Alg. 6:
/// dijkstra_search over each unresolved range) and by the ROAD baseline.
///
/// The workspace (distance labels, heap) is allocated once and recycled
/// with epoch stamping, so running many small searches costs O(settled)
/// each rather than O(|V|).
///
/// Not thread-safe: use one instance per thread (Refine_kNN gives each CPU
/// thread its own).
class BoundedDijkstra {
 public:
  explicit BoundedDijkstra(const Graph* graph)
      : graph_(graph),
        dist_(graph->num_vertices(), 0),
        epoch_of_(graph->num_vertices(), 0),
        heap_(graph->num_vertices()) {}

  /// Visits every vertex v with dist(source, v) <= radius, in nondecreasing
  /// distance order, calling visit(v, dist). Follows out-edges.
  void Run(VertexId source, Distance radius,
           const std::function<void(VertexId, Distance)>& visit) {
    Seed(source, 0);
    Search(radius, visit);
  }

  /// As Run, but starting from a point on an edge.
  void RunFromPoint(EdgePoint point, Distance radius,
                    const std::function<void(VertexId, Distance)>& visit) {
    BeginSearch();
    const Edge& e = graph_->edge(point.edge);
    const Distance initial = e.weight - point.offset;
    if (initial <= radius) SeedMore(e.target, initial);
    Search(radius, visit);
  }

  /// Multi-source variant: begins a search seeded at several (vertex, cost)
  /// pairs. Call BeginSearch, then SeedMore for each source, then Search.
  void BeginSearch() {
    ++epoch_;
    heap_.Clear();
  }

  void SeedMore(VertexId v, Distance cost) {
    if (Label(v) > cost) {
      SetLabel(v, cost);
      heap_.PushOrDecrease(v, cost);
    }
  }

  void Search(Distance radius,
              const std::function<void(VertexId, Distance)>& visit) {
    SearchPrunedDynamic([radius] { return radius; },
                        [&](VertexId v, Distance d) {
                          visit(v, d);
                          return true;
                        });
  }

  /// Attaches a query deadline: the search polls it every 64 settled
  /// vertices and stops early (setting cancelled()) once it expires. Null
  /// (the default) disables polling. The pointer must outlive the search.
  void set_deadline(const util::Deadline* deadline) { deadline_ = deadline; }

  /// True when the previous Search/Run stopped because the attached
  /// deadline expired rather than because the frontier was exhausted.
  bool cancelled() const { return cancelled_; }

  /// As Search with a radius re-evaluated at every step, and a visitor
  /// that returns whether to relax the settled vertex's out-edges:
  /// returning false prunes expansion *through* the vertex while still
  /// reporting it (Refine_kNN uses it to stop re-expanding the already
  /// resolved candidate region). The radius must be non-increasing over
  /// the search (a shrinking kNN bound); the search stops as soon as the
  /// next settled distance exceeds it.
  void SearchPrunedDynamic(
      const std::function<Distance()>& radius,
      const std::function<bool(VertexId, Distance)>& visit) {
    cancelled_ = false;
    uint32_t settled = 0;
    while (!heap_.empty()) {
      if (deadline_ != nullptr && (++settled & 63u) == 0 &&
          deadline_->Expired()) {
        cancelled_ = true;
        break;
      }
      auto [v, d] = heap_.Pop();
      if (d > radius()) break;
      if (!visit(v, d)) continue;
      const Distance bound = radius();
      for (EdgeId id : graph_->OutEdgeIds(v)) {
        const Edge& e = graph_->edge(id);
        const Distance nd = d + e.weight;
        if (nd <= bound && nd < Label(e.target)) {
          SetLabel(e.target, nd);
          heap_.PushOrDecrease(e.target, nd);
        }
      }
    }
  }

 private:
  void Seed(VertexId source, Distance cost) {
    BeginSearch();
    SeedMore(source, cost);
  }

  Distance Label(VertexId v) const {
    return epoch_of_[v] == epoch_ ? dist_[v] : kInfiniteDistance;
  }
  void SetLabel(VertexId v, Distance d) {
    epoch_of_[v] = epoch_;
    dist_[v] = d;
  }

  const Graph* graph_;
  std::vector<Distance> dist_;
  std::vector<uint64_t> epoch_of_;
  uint64_t epoch_ = 0;
  util::IndexedMinHeap<Distance> heap_;
  const util::Deadline* deadline_ = nullptr;
  bool cancelled_ = false;
};

}  // namespace gknn::roadnet

#endif  // GKNN_ROADNET_DIJKSTRA_H_
