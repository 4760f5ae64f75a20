#include "core/graph_grid.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace gknn::core {

using roadnet::EdgeId;
using roadnet::Graph;
using roadnet::VertexId;

util::Result<GraphGrid> GraphGrid::Build(
    const Graph* graph, uint32_t delta_c, uint32_t delta_v,
    const roadnet::PartitionOptions& partition_options) {
  if (delta_v == 0) {
    return util::Status::InvalidArgument("delta_v must be positive");
  }
  GKNN_ASSIGN_OR_RETURN(
      roadnet::GridPartition partition,
      roadnet::PartitionIntoGrid(*graph, delta_c, partition_options));

  GraphGrid grid;
  grid.graph_ = graph;
  grid.delta_v_ = delta_v;
  grid.partition_ = std::move(partition);
  const uint32_t num_cells = grid.partition_.num_cells;

  // Group vertices by cell.
  std::vector<std::vector<VertexId>> cell_vertices(num_cells);
  for (VertexId v = 0; v < graph->num_vertices(); ++v) {
    cell_vertices[grid.partition_.cell_of_vertex[v]].push_back(v);
  }

  // A vertex with d in-edges needs max(1, ceil(d / delta_v)) entries: the
  // primary plus virtual continuations (paper §III-A).
  auto slots_needed = [&](VertexId v) -> uint32_t {
    const uint32_t d = graph->InDegree(v);
    return d == 0 ? 1 : (d + delta_v - 1) / delta_v;
  };
  grid.cell_slot_offsets_.assign(num_cells + 1, 0);
  grid.cell_edge_count_.assign(num_cells, 0);
  uint32_t max_slots = 1;
  for (CellId c = 0; c < num_cells; ++c) {
    uint32_t slots = 0;
    for (VertexId v : cell_vertices[c]) slots += slots_needed(v);
    grid.cell_slot_offsets_[c + 1] = grid.cell_slot_offsets_[c] + slots;
    max_slots = std::max(max_slots, slots);
  }
  grid.max_slots_per_cell_ = max_slots;

  // Lay out the flat slot and edge arrays.
  grid.slots_.assign(grid.cell_slot_offsets_[num_cells], VertexSlot{});
  grid.edge_entries_.assign(grid.slots_.size() * delta_v, EdgeEntry{});
  for (CellId c = 0; c < num_cells; ++c) {
    uint32_t slot = 0;
    for (VertexId v : cell_vertices[c]) {
      const auto in_edges = graph->InEdgeIds(v);
      uint32_t cursor = 0;
      bool first = true;
      do {
        const uint32_t take = std::min<uint32_t>(
            delta_v, static_cast<uint32_t>(in_edges.size()) - cursor);
        VertexSlot& s = grid.slots_[grid.GlobalSlot(c, slot)];
        s.vertex = v;
        s.n_edges = static_cast<uint16_t>(take);
        s.is_virtual = first ? 0 : 1;
        for (uint32_t j = 0; j < take; ++j) {
          const EdgeId id = in_edges[cursor + j];
          const roadnet::Edge& e = graph->edge(id);
          grid.edge_entries_[grid.GlobalSlot(c, slot) * delta_v + j] =
              EdgeEntry{id, e.source, e.weight};
        }
        cursor += take;
        first = false;
        ++slot;
      } while (cursor < in_edges.size());
      grid.cell_edge_count_[c] += static_cast<uint32_t>(in_edges.size());
    }
    GKNN_DCHECK(slot == grid.NumSlots(c));
  }

  // Cell adjacency: cells sharing an edge in either direction.
  std::vector<std::set<CellId>> neighbors(num_cells);
  for (const roadnet::Edge& e : graph->edges()) {
    const CellId a = grid.partition_.cell_of_vertex[e.source];
    const CellId b = grid.partition_.cell_of_vertex[e.target];
    if (a != b) {
      neighbors[a].insert(b);
      neighbors[b].insert(a);
    }
  }
  grid.neighbor_offsets_.assign(num_cells + 1, 0);
  for (CellId c = 0; c < num_cells; ++c) {
    grid.neighbor_offsets_[c + 1] =
        grid.neighbor_offsets_[c] + static_cast<uint32_t>(neighbors[c].size());
  }
  grid.neighbor_cells_.reserve(grid.neighbor_offsets_.back());
  for (CellId c = 0; c < num_cells; ++c) {
    grid.neighbor_cells_.insert(grid.neighbor_cells_.end(),
                                neighbors[c].begin(), neighbors[c].end());
  }
  return grid;
}

void GraphGrid::AppendCellVertices(CellId c,
                                   std::vector<VertexId>* out) const {
  for (uint32_t i = 0; i < NumSlots(c); ++i) {
    const VertexSlot& s = Slot(c, i);
    if (!s.empty() && !s.is_virtual) out->push_back(s.vertex);
  }
}

uint64_t GraphGrid::MemoryBytes() const {
  return slots_.size() * sizeof(VertexSlot) +
         edge_entries_.size() * sizeof(EdgeEntry) +
         partition_.cell_of_vertex.size() * sizeof(uint32_t) +
         (cell_slot_offsets_.size() + cell_edge_count_.size() +
          neighbor_offsets_.size()) *
             sizeof(uint32_t) +
         neighbor_cells_.size() * sizeof(CellId);
}

void CellRegion::AddInitial(const GraphGrid& grid, roadnet::EdgeId edge) {
  const CellId query_cell = grid.CellOfEdge(edge);
  Add(query_cell);
  Add(grid.CellOfVertex(grid.graph().edge(edge).target));
  for (CellId c : grid.NeighborCells(query_cell)) Add(c);
}

bool CellRegion::AddRing(const GraphGrid& grid, size_t from) {
  const size_t before = cells_.size();
  for (size_t i = from; i < before; ++i) {
    for (CellId c : grid.NeighborCells(cells_[i])) Add(c);
  }
  return cells_.size() > before;
}

}  // namespace gknn::core
