/**
 * @file
 * Interaction-aware 2-D grid layout (Section 6.2).
 *
 * Maps graph vertices (logical qubit tiles) onto grid cells by
 * recursive bisection: each step splits the current rectangle along
 * its longer axis and bisects the induced interaction subgraph with
 * a target fraction matching the two halves' capacities.  The
 * objective is the sum of edge-weighted Manhattan distances, i.e.
 * exactly the braid-length objective of the paper.
 *
 * Braid routes move *through* the mesh, so Manhattan distance is
 * their true cost — but lattice-surgery merge/split corridors route
 * *around* live patches, which makes collinear non-adjacent pairs one
 * tile more expensive than their Manhattan distance.  The corridor
 * objective (weightedCorridorLength) prices edges by that
 * around-patch route length, and refineForCorridors() improves a
 * bisection-seeded layout against it by greedy pairwise swaps.
 */

#ifndef QSURF_PARTITION_LAYOUT_H
#define QSURF_PARTITION_LAYOUT_H

#include <vector>

#include "common/geometry.h"
#include "partition/bisect.h"
#include "partition/graph.h"

namespace qsurf::partition {

/** A placement of graph vertices onto a width x height grid. */
struct GridLayout
{
    int width = 0;
    int height = 0;
    /** Grid position of each vertex. */
    std::vector<Coord> position;
    /** Vertex occupying each cell (row-major), or -1. */
    std::vector<int> vertex_at;

    /** @return the vertex at cell @p c, or -1 when empty. */
    int
    at(const Coord &c) const
    {
        return vertex_at[static_cast<size_t>(linearIndex(c, width))];
    }
};

/**
 * Row-major mask of cells unusable for placement (non-zero = dead);
 * empty means every cell is usable.  Defective fabrics price their
 * dead tiles out of seeds and refinement through this.
 */
using CellMask = std::vector<uint8_t>;

/**
 * Naive layout: vertex i at row-major cell i (the paper's baseline
 * arrangement, used by braid Policies 0 and 1).
 */
GridLayout naiveLayout(int num_vertices, int width, int height);

/** Naive layout skipping dead cells: vertices fill the usable cells
 *  in row-major order.  fatal()s when they do not fit. */
GridLayout naiveLayout(int num_vertices, int width, int height,
                       const CellMask &dead);

/**
 * Interaction-optimized layout via recursive bisection.
 *
 * @param g      interaction graph; g.size() <= width * height.
 * @param width  grid width in cells.
 * @param height grid height in cells.
 * @param seed   RNG seed (layout is deterministic per seed).
 */
GridLayout layoutOnGrid(const Graph &g, int width, int height,
                        uint64_t seed = 1);

/** Bisection layout on a damaged grid: the perfect-grid seed is
 *  computed first (bit-identical partitions), then every vertex on a
 *  dead cell is relocated to the nearest usable empty cell
 *  (deterministic tie-breaks).  fatal()s when the usable cells
 *  cannot hold the graph. */
GridLayout layoutOnGrid(const Graph &g, int width, int height,
                        uint64_t seed, const CellMask &dead);

/**
 * Relocate every vertex of @p layout sitting on a dead cell to the
 * nearest usable empty cell (Manhattan distance, row-major
 * tie-break).  No-op for an empty mask; fatal()s when a vertex has
 * nowhere to go.
 */
void evictDeadCells(GridLayout &layout, const CellMask &dead);

/** @return sum over edges of weight * Manhattan distance. */
double weightedManhattan(const Graph &g, const GridLayout &layout);

/**
 * Patch-layout objective of the lattice-surgery machine.  The braid
 * backends always optimize Manhattan length; the surgery and hybrid
 * backends select one of these (ROADMAP: "Surgery-aware layout").
 */
enum class LayoutObjective : int
{
    /** Edge-weighted Manhattan distance (the Section 6.2 braid
     *  objective, historically reused for surgery). */
    BraidManhattan = 0,

    /** Edge-weighted around-patch corridor length, with a greedy
     *  pairwise-swap refinement pass on top of the bisection seed. */
    Corridor = 1,

    /** Corridor objective plus dedicated ancilla lanes reserved in
     *  the patch mesh (surgery::PatchArchOptions::lane_spacing). */
    CorridorLanes = 2,
};

/** Number of LayoutObjective values (for knob validation). */
inline constexpr int num_layout_objectives = 3;

/** @return the display name of @p objective. */
const char *layoutObjectiveName(LayoutObjective objective);

/** @return the checked LayoutObjective for knob value @p v. */
LayoutObjective layoutObjective(int v);

/**
 * Merge/split corridor length between patch cells @p a and @p b, in
 * patch tiles — the edge cost of the corridor layout objective.
 * Mirrors surgery::PatchArch::corridorRoute exactly: adjacent
 * patches merge through their shared boundary (1 tile), diagonal
 * pairs route at Manhattan length, collinear non-adjacent pairs pay
 * one extra tile to route *around* the patches between them, and —
 * when @p lane_spacing > 0 — every dedicated-lane band the span
 * crosses (one per multiple of lane_spacing between the cells, per
 * axis) adds one tile, matching the two mesh lines each lane
 * inserts.
 */
int corridorTiles(const Coord &a, const Coord &b,
                  int lane_spacing = 0);

/** @return sum over edges of weight * corridorTiles. */
double weightedCorridorLength(const Graph &g,
                              const GridLayout &layout,
                              int lane_spacing = 0);

/**
 * Greedy pairwise-swap refinement of @p layout against the corridor
 * objective (lane-aware when @p lane_spacing > 0): repeatedly
 * applies the first cell swap (or move into an empty cell) that
 * strictly reduces weightedCorridorLength, until a full pass finds
 * none or @p max_passes passes ran.  Deterministic: scan order is
 * fixed, so a given (graph, layout) always refines to the same
 * placement.
 *
 * The scan is pruned exactly.  corridorTiles >= manhattan, so a
 * vertex's weighted Manhattan cost at a cell (separable in x and y)
 * lower-bounds its corridor cost there; a swap whose two moved
 * vertices cannot together fall below their current corridor costs
 * is skipped, and so is every row where no cell can host such a
 * swap.  A skipped swap is one the unpruned scan (every pair j > i
 * in row-major order, scored exactly) would also reject, so the
 * applied swaps, the placement and the cost equal that scan's.
 *
 * @return the refined layout's weightedCorridorLength.
 */
double refineForCorridors(const Graph &g, GridLayout &layout,
                          int lane_spacing = 0, int max_passes = 8);

/** Dead-cell-aware refinement: identical to the overload above, but
 *  swaps never read from or move a vertex onto a dead cell.  An
 *  empty mask takes the exact unmasked path. */
double refineForCorridors(const Graph &g, GridLayout &layout,
                          int lane_spacing, int max_passes,
                          const CellMask &dead);

/** @return the smallest near-square (width, height) covering n cells. */
std::pair<int, int> gridShape(int n);

} // namespace qsurf::partition

#endif // QSURF_PARTITION_LAYOUT_H
