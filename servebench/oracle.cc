#include "oracle.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>

namespace servebench {

using gknn::core::KnnResultEntry;
using gknn::roadnet::Distance;
using gknn::roadnet::EdgePoint;
using gknn::roadnet::kInfiniteDistance;

namespace {

/// Whether a search from vertex 0 over `adj` reaches every vertex.
template <typename Adjacency, typename Next>
bool ReachesAll(const Adjacency& adj, Next next) {
  if (adj.empty()) return true;
  std::vector<bool> seen(adj.size(), false);
  std::vector<uint32_t> stack{0};
  seen[0] = true;
  size_t reached = 1;
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    for (const auto& arc : adj[v]) {
      const uint32_t w = next(arc);
      if (!seen[w]) {
        seen[w] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == adj.size();
}

}  // namespace

Oracle::Oracle(const gknn::roadnet::Graph& graph)
    : num_vertices_(graph.num_vertices()),
      edges_(graph.edges()),
      out_(graph.num_vertices()) {
  std::vector<std::vector<uint32_t>> in(num_vertices_);
  for (const gknn::roadnet::Edge& e : edges_) {
    out_[e.source].push_back(Arc{e.target, e.weight});
    in[e.target].push_back(e.source);
  }
  // Strongly connected iff vertex 0 reaches every vertex along the arcs
  // and every vertex reaches vertex 0 (a search along reversed arcs).
  strongly_connected_ =
      ReachesAll(out_, [](const Arc& a) { return a.target; }) &&
      ReachesAll(in, [](uint32_t source) { return source; });
}

std::vector<Distance> Oracle::VertexDistances(EdgePoint from) const {
  std::vector<Distance> dist(num_vertices_, kInfiniteDistance);
  using Item = std::pair<Distance, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  const gknn::roadnet::Edge& start = edges_.at(from.edge);
  dist[start.target] = start.weight - from.offset;
  heap.emplace(dist[start.target], start.target);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[v]) continue;  // stale entry
    for (const Arc& arc : out_[v]) {
      const Distance nd = d + arc.weight;
      if (nd < dist[arc.target]) {
        dist[arc.target] = nd;
        heap.emplace(nd, arc.target);
      }
    }
  }
  return dist;
}

std::vector<KnnResultEntry> Oracle::AllReachable(
    EdgePoint from, const std::vector<EdgePoint>& positions) const {
  const std::vector<Distance> dist = VertexDistances(from);
  std::vector<KnnResultEntry> all;
  for (uint32_t object = 0; object < positions.size(); ++object) {
    const EdgePoint at = positions[object];
    if (at.edge == gknn::roadnet::kInvalidEdge) continue;  // deregistered
    Distance d = kInfiniteDistance;
    const Distance via_source = dist[edges_.at(at.edge).source];
    if (via_source != kInfiniteDistance) d = via_source + at.offset;
    if (at.edge == from.edge && at.offset >= from.offset) {
      d = std::min<Distance>(d, at.offset - from.offset);
    }
    if (d != kInfiniteDistance) all.push_back(KnnResultEntry{object, d});
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<KnnResultEntry> Oracle::Knn(
    EdgePoint from, uint32_t k, const std::vector<EdgePoint>& positions) const {
  std::vector<KnnResultEntry> all = AllReachable(from, positions);
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<KnnResultEntry> Oracle::Range(
    EdgePoint from, Distance radius,
    const std::vector<EdgePoint>& positions) const {
  std::vector<KnnResultEntry> all = AllReachable(from, positions);
  const auto beyond = std::find_if(
      all.begin(), all.end(),
      [radius](const KnnResultEntry& e) { return e.distance > radius; });
  all.erase(beyond, all.end());
  return all;
}

std::string OracleSelfTest() {
  // 0 -e0:10-> 1 -e1:5-> 2 -e2:7-> 3,  0 -e3:30-> 3,  4 -e4:4-> 3,
  // 4 -e5:6-> 0,  2 -e6:20-> 0.  Vertex 4 has no in-edge, so nothing is
  // reachable from it. From <e0, 4>: v1 = 6, v2 = 11, v3 = 18, v0 = 31.
  auto graph = gknn::roadnet::Graph::FromEdges(
      5, {{0, 1, 10}, {1, 2, 5}, {2, 3, 7}, {0, 3, 30}, {4, 3, 4},
          {4, 0, 6}, {2, 0, 20}});
  if (!graph.ok()) return "self-test graph: " + graph.status().ToString();
  const Oracle oracle(*graph);
  const EdgePoint query{0, 4};
  const std::vector<Distance> want_dist{31, 6, 11, 18, kInfiniteDistance};
  if (oracle.VertexDistances(query) != want_dist) {
    return "vertex distances differ from the hand-computed ones";
  }
  // Strong connectivity: the graph above fails it (vertex 4 has no
  // in-edge); so does its cycle 0 -> 1 -> 2 -> 0 with a sink 3 hung on it,
  // which vertex 0 reaches but which reaches nothing; the bare cycle
  // passes.
  struct ConnectivityCase {
    const char* name;
    uint32_t num_vertices;
    std::vector<gknn::roadnet::Edge> edges;
    bool want;
  };
  const ConnectivityCase connectivity[] = {
      {"cycle", 3, {{0, 1, 10}, {1, 2, 5}, {2, 0, 20}}, true},
      {"cycle with a sink", 4, {{0, 1, 10}, {1, 2, 5}, {2, 0, 20}, {0, 3, 30}},
       false},
  };
  if (oracle.strongly_connected()) {
    return "oracle self-test: the five-vertex graph counted as strongly "
           "connected";
  }
  for (const ConnectivityCase& c : connectivity) {
    auto g = gknn::roadnet::Graph::FromEdges(c.num_vertices, c.edges);
    if (!g.ok()) return "self-test graph: " + g.status().ToString();
    if (Oracle(*g).strongly_connected() != c.want) {
      return std::string("oracle self-test: strong connectivity of the ") +
             c.name + " is wrong";
    }
  }
  // Objects: 0 ahead on the query's edge (3), 1 behind it (31 + 2 = 33),
  // 2 and 7 tied on e2 (12), 3 on an edge out of unreachable vertex 4,
  // 4 at the start of e3 (31), 5 at the end of e1 (11), 6 on the query
  // point itself (0).
  const std::vector<EdgePoint> objects{{0, 7}, {0, 2}, {2, 1}, {4, 2},
                                       {3, 0}, {1, 5}, {0, 4}, {2, 1}};
  using E = KnnResultEntry;
  const std::vector<E> sorted{{6, 0},  {0, 3},  {5, 11}, {2, 12},
                              {7, 12}, {4, 31}, {1, 33}};
  auto prefix = [&](size_t n) {
    return std::vector<E>(sorted.begin(), sorted.begin() + n);
  };
  struct Case {
    const char* name;
    std::vector<E> got;
    std::vector<E> want;
  };
  const Case cases[] = {
      {"knn k=3", oracle.Knn(query, 3, objects), prefix(3)},
      {"knn k=5 (tie on distance 12)", oracle.Knn(query, 5, objects),
       prefix(5)},
      {"knn k=20 (7 reachable)", oracle.Knn(query, 20, objects), prefix(7)},
      {"range 12 (inclusive)", oracle.Range(query, 12, objects), prefix(5)},
      {"range 11", oracle.Range(query, 11, objects), prefix(3)},
      {"range 0", oracle.Range(query, 0, objects), prefix(1)},
  };
  for (const Case& c : cases) {
    if (c.got != c.want) {
      std::ostringstream out;
      out << "oracle self-test case '" << c.name << "' got";
      for (const E& e : c.got) out << " (" << e.object << "," << e.distance << ")";
      return out.str();
    }
  }
  return "";
}

}  // namespace servebench
