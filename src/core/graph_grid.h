#ifndef GKNN_CORE_GRAPH_GRID_H_
#define GKNN_CORE_GRAPH_GRID_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "roadnet/graph.h"
#include "roadnet/partitioner.h"
#include "util/result.h"

namespace gknn::core {

/// The graph grid of the G-Grid index (paper §III-A): the road network laid
/// out as a Z-ordered array of cells, each holding fixed-stride vertex
/// entries, each holding up to delta^v incoming edges. Vertices with more
/// than delta^v in-edges spill into *virtual vertices* — continuation
/// entries in the same cell.
///
/// Array-based on purpose ("to reserve memory locality for highly parallel
/// accesses on the GPU, our graph grid is based on arrays instead of
/// pointer-based hierarchical structures"): all slots live in one flat
/// Z-ordered array indexed by per-cell CSR offsets, and all edge entries in
/// one flat array of stride delta_v per slot. (The paper pads every cell to
/// a fixed 128-byte stride; CSR offsets keep the same locality and O(1)
/// indexing without paying the max-cell stride in memory on cells that are
/// nearly empty.)
///
/// Immutable after Build; both the CPU and the simulated GPU read the same
/// arrays (the paper keeps two identical copies; the index accounts for the
/// GPU copy's memory and initial transfer separately).
class GraphGrid {
 public:
  /// A stored edge (paper e = <id, v_s, w>): the destination is implied by
  /// the vertex entry holding it.
  struct EdgeEntry {
    roadnet::EdgeId id = roadnet::kInvalidEdge;
    roadnet::VertexId source = roadnet::kInvalidVertex;
    uint32_t weight = 0;
  };

  /// A vertex entry (paper v = <id, A_e, n>). `is_virtual` marks a
  /// continuation entry of a vertex whose in-edges overflowed delta_v.
  /// Empty slots have vertex == kInvalidVertex.
  struct VertexSlot {
    roadnet::VertexId vertex = roadnet::kInvalidVertex;
    uint16_t n_edges = 0;
    uint8_t is_virtual = 0;

    bool empty() const { return vertex == roadnet::kInvalidVertex; }
  };

  /// Partitions `graph` and lays out the grid. The graph must outlive the
  /// grid.
  static util::Result<GraphGrid> Build(
      const roadnet::Graph* graph, uint32_t delta_c, uint32_t delta_v,
      const roadnet::PartitionOptions& partition_options);

  const roadnet::Graph& graph() const { return *graph_; }
  uint32_t delta_v() const { return delta_v_; }
  uint32_t psi() const { return partition_.psi; }
  uint32_t grid_dim() const { return partition_.grid_dim; }
  uint32_t num_cells() const { return partition_.num_cells; }
  /// Largest number of slots any cell holds.
  uint32_t max_slots_per_cell() const { return max_slots_per_cell_; }
  const roadnet::GridPartition& partition() const { return partition_; }

  CellId CellOfVertex(roadnet::VertexId v) const {
    return partition_.cell_of_vertex[v];
  }

  /// The inverted index (paper §III-A): an edge maps to the cell of its
  /// source vertex. This is the cell an object located on the edge belongs
  /// to (Algorithm 1's getCell).
  CellId CellOfEdge(roadnet::EdgeId e) const {
    return CellOfVertex(graph_->edge(e).source);
  }

  /// Number of used slots in a cell (real + virtual vertex entries;
  /// paper c.n_v).
  uint32_t NumSlots(CellId c) const {
    return cell_slot_offsets_[c + 1] - cell_slot_offsets_[c];
  }

  /// Number of edges stored in a cell (paper c.n_e).
  uint32_t NumEdges(CellId c) const { return cell_edge_count_[c]; }

  const VertexSlot& Slot(CellId c, uint32_t i) const {
    return slots_[GlobalSlot(c, i)];
  }

  /// The edge entries of slot i of cell c (size Slot(c, i).n_edges).
  std::span<const EdgeEntry> SlotEdges(CellId c, uint32_t i) const {
    const size_t base = static_cast<size_t>(GlobalSlot(c, i)) * delta_v_;
    return {edge_entries_.data() + base, Slot(c, i).n_edges};
  }

  /// Cells sharing an edge with `c` in either direction, sorted, excluding
  /// `c` itself (paper §V-A's cell neighborhood).
  std::span<const CellId> NeighborCells(CellId c) const {
    return {neighbor_cells_.data() + neighbor_offsets_[c],
            neighbor_offsets_[c + 1] - neighbor_offsets_[c]};
  }

  /// Appends the distinct (non-virtual) vertices of cell `c` to `out`.
  void AppendCellVertices(CellId c, std::vector<roadnet::VertexId>* out) const;

  /// Resident size of the grid arrays in bytes (one copy; the paper keeps
  /// an identical second copy in GPU memory).
  uint64_t MemoryBytes() const;

 private:
  friend util::Status WriteGraphGrid(const GraphGrid& grid,
                                     const std::string& path);
  friend util::Result<GraphGrid> ReadGraphGrid(const roadnet::Graph* graph,
                                               const std::string& path);

  size_t GlobalSlot(CellId c, uint32_t i) const {
    return cell_slot_offsets_[c] + i;
  }

  const roadnet::Graph* graph_ = nullptr;
  uint32_t delta_v_ = 0;
  uint32_t max_slots_per_cell_ = 0;
  roadnet::GridPartition partition_;
  std::vector<uint32_t> cell_slot_offsets_;  // CSR, size num_cells+1
  std::vector<VertexSlot> slots_;            // total slots, Z-ordered
  std::vector<EdgeEntry> edge_entries_;      // slots * delta_v
  std::vector<uint32_t> cell_edge_count_;
  std::vector<uint32_t> neighbor_offsets_;  // CSR over cells
  std::vector<CellId> neighbor_cells_;
};

/// A query's candidate region L (paper §V-A): grid cells in the order they
/// joined, with O(1) membership. Membership is epoch-stamped, so Clear()
/// costs O(1) and one region is recycled across queries.
class CellRegion {
 public:
  explicit CellRegion(uint32_t num_cells) : epoch_of_(num_cells, 0) {}

  void Clear() {
    ++epoch_;
    cells_.clear();
  }

  bool Contains(CellId c) const { return epoch_of_[c] == epoch_; }
  const std::vector<CellId>& cells() const { return cells_; }
  size_t size() const { return cells_.size(); }

  /// Adds the initial region of a query on `edge`: the edge's cell, the
  /// cell of the edge's target (where GPU_SDist is seeded) and the edge
  /// cell's neighbors.
  void AddInitial(const GraphGrid& grid, roadnet::EdgeId edge);

  /// Grows the region by one ring: the neighbors of cells()[from..) that
  /// are not yet members. Returns false when nothing was added (the region
  /// covers everything reachable through the cell neighborhood).
  bool AddRing(const GraphGrid& grid, size_t from);

 private:
  void Add(CellId c) {
    if (Contains(c)) return;
    epoch_of_[c] = epoch_;
    cells_.push_back(c);
  }

  std::vector<uint64_t> epoch_of_;
  uint64_t epoch_ = 1;  // a fresh region is empty
  std::vector<CellId> cells_;
};

}  // namespace gknn::core

#endif  // GKNN_CORE_GRAPH_GRID_H_
