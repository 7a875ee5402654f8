/**
 * @file
 * Patch layout for the lattice-surgery machine (Section 8.2).
 *
 * One planar patch per logical qubit on a 2-D tile grid, with
 * ancilla corridors between patches.  The routing mesh mirrors the
 * braid machine's convention — a router at every patch center and
 * every corridor point between patches, i.e. a (2W+1) x (2H+1) grid
 * for a W x H patch grid — but the semantics differ: a merge/split
 * chain may pass through corridor routers only, never through
 * another live data patch (patch centers are reserved terminals on
 * the mesh; see engine::ChainClaimer).  Corridor-aware
 * dimension-ordered routes route around patches, so chains between
 * non-adjacent patches are strictly longer than the equivalent
 * braid — one half of the paper's "neither the benefits of braids
 * nor teleportation" argument.
 *
 * The layout objective is selectable (partition::LayoutObjective):
 * the historical braid-Manhattan bisection, the corridor objective
 * (bisection seed + greedy swap refinement against the around-patch
 * corridor length), or corridor+lanes, which additionally sizes
 * dedicated ancilla *through-lanes* into the mesh: every
 * lane_spacing-th patch-row/column boundary carries an extra
 * corridor row/column, and long-haul chains ride the lanes instead
 * of fighting over the corridor rings next to patches.
 *
 * Magic-state factory patches sit in a right-hand column, like the
 * braid machine's Figure 3b arrangement: T gates merge with a
 * factory patch through the same corridor fabric.
 */

#ifndef QSURF_SURGERY_PATCH_ARCH_H
#define QSURF_SURGERY_PATCH_ARCH_H

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "circuit/dag.h"
#include "circuit/interaction.h"
#include "common/geometry.h"
#include "fabric/defect.h"
#include "network/mesh.h"
#include "partition/layout.h"

namespace qsurf::surgery {

/** Configuration of the lattice-surgery machine. */
struct PatchArchOptions
{
    /** Data patches per magic-state factory patch. */
    int patches_per_factory = 8;

    /** Use the interaction-aware layout (Section 6.2's objective). */
    bool optimized_layout = true;

    /** Placement objective; Corridor* refine the bisection seed
     *  against the around-patch corridor metric, CorridorLanes also
     *  reserves dedicated ancilla lanes in the mesh. */
    partition::LayoutObjective layout_objective =
        partition::LayoutObjective::BraidManhattan;

    /** Patch rows/columns between dedicated ancilla lanes (used by
     *  LayoutObjective::CorridorLanes only). */
    int lane_spacing = 4;

    /** Layout RNG seed. */
    uint64_t seed = 1;

    /** Fabric damage: dead patches are never placed on, broken
     *  corridor couplers never claimed; the grid grows until the
     *  live cells fit. */
    fabric::DefectParams defects;
};

/**
 * The patch grid: placement of logical data patches and factory
 * patches, the mapping onto routing-mesh coordinates, and the
 * corridor-aware preferred routes chains claim.
 */
class PatchArch
{
  public:
    /**
     * Build the machine for @p graph (one vertex per logical
     * qubit), sizing a near-square grid of data patches plus a
     * factory column.
     */
    PatchArch(const circuit::InteractionGraph &graph,
              const PatchArchOptions &opts);

    /** @return number of logical data qubits. */
    int numQubits() const { return nq; }

    /** @return patch-grid width (including the factory column). */
    int patchWidth() const { return pw; }

    /** @return patch-grid height. */
    int patchHeight() const { return ph; }

    /** @return routing-mesh width: a router at every patch center,
     *  every corridor point between patches, and every reserved
     *  ancilla lane column. */
    int meshWidth() const { return mw; }

    /** @return routing-mesh height. */
    int meshHeight() const { return mh; }

    /** @return number of dedicated ancilla lane rows. */
    int
    numLaneRows() const
    {
        return static_cast<int>(lane_rows_y.size());
    }

    /** @return number of dedicated ancilla lane columns. */
    int
    numLaneCols() const
    {
        return static_cast<int>(lane_cols_x.size());
    }

    /** @return true when mesh row @p y is a dedicated ancilla lane. */
    bool isLaneRow(int y) const;

    /** @return true when mesh column @p x is a dedicated lane. */
    bool isLaneCol(int x) const;

    /**
     * @return mesh area relative to the lane-free machine of the
     * same patch grid — the extra ancilla space the dedicated lanes
     * cost, for physical-qubit accounting.
     */
    double laneAreaFactor() const;

    /** @return number of magic-state factory patches. */
    int
    numFactories() const
    {
        return static_cast<int>(factories.size());
    }

    /** @return router coordinate of qubit @p q's patch center. */
    Coord terminal(int32_t q) const;

    /** @return router coordinate of factory @p f's patch center. */
    Coord factoryTerminal(int f) const;

    /** @return patch-grid position of factory @p f. */
    Coord factoryPatch(int f) const;

    /**
     * @return factory indices sorted by Manhattan patch distance
     * from the patch of @p q (nearest first).
     */
    std::vector<int> factoriesByDistance(int32_t q) const;

    /** @return a routing mesh sized for this machine (fresh state). */
    network::Mesh makeMesh() const;

    /**
     * @return every patch-center router (data and factory), for
     * reservation on the mesh: chains may not route through them.
     */
    std::vector<Coord> reservedTerminals() const;

    /** @return patch-grid position of qubit @p q. */
    Coord patchOf(int32_t q) const;

    /**
     * Corridor-aware preferred route between patch centers @p src
     * and @p dst: leaves the source patch, runs along corridor (and
     * lane) routers only — never through another patch center — and
     * enters the destination patch.  @p yx_first selects the
     * transposed geometry (vertical corridor first); for collinear
     * pairs the two geometries take *opposite* sides of the patch
     * row/column, so contended same-row/column merges keep route
     * diversity.  Adjacent patches connect straight through their
     * shared boundary.  With dedicated lanes, long hauls whose span
     * crosses a lane ride it instead of a patch-adjacent ring.
     */
    network::Path corridorRoute(const Coord &src, const Coord &dst,
                                bool yx_first) const;

    /**
     * @return chain length in patch tiles for a corridor of
     * @p router_hops mesh hops (two router hops per patch tile,
     * rounded up); the unit the d-cycle merge/split rounds are
     * charged per.
     */
    static int chainTiles(int router_hops);

    /**
     * @return sum of interaction-weighted Manhattan patch distances
     * (the Section 6.2 layout objective, reused for surgery).
     */
    double layoutCost(const circuit::InteractionGraph &graph) const;

    /**
     * @return sum of interaction-weighted corridor lengths in patch
     * tiles (the surgery-aware layout objective; see
     * partition::weightedCorridorLength).
     */
    double corridorCost(const circuit::InteractionGraph &graph) const;

    /** @return the materialized defect map (empty when healthy). */
    const fabric::DefectMap &defects() const { return defect_map; }

    /** @return true when no node or link of @p path is defective —
     *  always true on the healthy fabric. */
    bool routeDefectFree(const network::Path &path) const;

    /** @return the dead-patch fraction of the bounding box spanned
     *  by the patches of qubits @p qa and @p qb — the static
     *  per-route defect exposure the hybrid arbiter prices mesh
     *  schemes with (0 on the healthy fabric). */
    double defectExposure(int32_t qa, int32_t qb) const;

  private:
    /** @return the mesh router at the center of patch cell @p patch. */
    Coord center(const Coord &patch) const;

    /** Compute the lane-aware patch-cell -> mesh coordinate maps. */
    void buildCoordinateMaps(int lane_spacing);

    /** Append the lane-riding long-haul route, or return false when
     *  no lane lies across the span of this geometry. */
    bool laneRoute(network::Path::Nodes &nodes, const Coord &src,
                   const Coord &dst, bool yx_first) const;

    /** Mesh links lost to broken patch-to-patch couplers: every link
     *  of the straight segment between the two patch centers. */
    std::vector<std::pair<Coord, Coord>> defectiveMeshLinks() const;

    int nq;
    int pw;
    int ph;
    int mw = 0;
    int mh = 0;
    std::vector<Coord> qubit_patch;
    std::vector<Coord> factories;

    /** Mesh x of each patch column center / y of each row center. */
    std::vector<int> col_x;
    std::vector<int> row_y;

    /** Mesh coordinates of the dedicated lane columns/rows. */
    std::vector<int> lane_cols_x;
    std::vector<int> lane_rows_y;

    /** Patch rows/columns between lanes; 0 when lanes are off. */
    int lane_spacing = 0;

    /** Materialized fabric damage (empty when healthy). */
    fabric::DefectMap defect_map;

    /** Defective mesh routers, row-major over mw x mh (empty on the
     *  healthy fabric). */
    std::vector<uint8_t> bad_node_;

    /** Defective mesh links, keyed lo_index << 32 | hi_index. */
    std::unordered_set<uint64_t> bad_link_;
};

/**
 * The expensive prepare artifact of the patch machine: everything a
 * scheduler derives from the circuit and the seeded layout alone —
 * the dependence DAG, the interaction graph, the PatchArch geometry
 * (bisection, corridor refinement, lanes) and the per-gate
 * criticality.  Immutable once built and shared across concurrent
 * runs: one PatchPrepared serves the hybrid scheduler under every
 * arbiter, the surgery-sim backend included; handing the scheduler
 * one is bit-identical to building it inline.
 */
struct PatchPrepared
{
    circuit::Dag dag;
    circuit::InteractionGraph graph;
    PatchArch arch;
    std::vector<int> crit;

    PatchPrepared(const circuit::Circuit &circ,
                  const PatchArchOptions &arch_opts);
};

/**
 * Memoized corridor geometries.  A corridor's primary and transposed
 * routes are pure functions of its endpoints, but a contended op
 * would rebuild them every failed cycle — the scheduler routes
 * through this cache so repeated attempts are allocation-free.
 */
class CorridorRouter
{
  public:
    /** Primary + transposed corridor of one endpoint pair. */
    struct Routes
    {
        network::Path primary;
        network::Path fallback;
    };

    explicit CorridorRouter(const PatchArch &arch)
        : arch_(arch), mesh_width_(arch.meshWidth())
    {
    }

    /** @return the memoized routes between @p src and @p dst. */
    const Routes &
    routes(const Coord &src, const Coord &dst)
    {
        uint64_t key =
            (static_cast<uint64_t>(static_cast<uint32_t>(
                 linearIndex(src, mesh_width_)))
             << 32)
            | static_cast<uint32_t>(linearIndex(dst, mesh_width_));
        auto it = cache_.find(key);
        if (it == cache_.end())
            it = cache_
                     .emplace(key,
                              Routes{arch_.corridorRoute(src, dst,
                                                         false),
                                     arch_.corridorRoute(src, dst,
                                                         true)})
                     .first;
        return it->second;
    }

  private:
    const PatchArch &arch_;
    int mesh_width_;
    std::unordered_map<uint64_t, Routes> cache_;
};

} // namespace qsurf::surgery

#endif // QSURF_SURGERY_PATCH_ARCH_H
