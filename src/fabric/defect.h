/**
 * @file
 * Fabric defect maps: dead tiles, disabled links and hot regions.
 *
 * All three simulated machines historically assumed a perfect mesh;
 * real superconducting devices do not cooperate (Wu et al.,
 * arXiv:2111.13729; Zhao et al., arXiv:2112.13505 — dead qubits,
 * broken couplers, and error rates varying several-fold across one
 * chip).  A DefectMap makes "which resources exist, and at what
 * quality" explicit data instead of a global invariant:
 *
 *  - dead tiles: the architecture must not place a patch, tile or
 *    factory there, and the router at the tile center (plus its
 *    incident links) is permanently unavailable in the mesh;
 *  - disabled links: the mesh links along the corridor between two
 *    adjacent tiles can never be claimed — corridor routes, lane
 *    bands and BFS detours all route around them;
 *  - regions: rectangular error-rate multipliers feeding the qec
 *    logical-error proxy (hot spots degrade quality, not
 *    connectivity).
 *
 * Maps come from a deterministic seeded generator (keyed by density
 * and seed — the yield sweep's axis) or from an explicit JSON spec
 * describing a measured device.  An empty map is the perfect fabric
 * and costs nothing: every consumer fast-paths on empty(), which is
 * what keeps density-0 results bit-identical to the pre-defect code.
 */

#ifndef QSURF_FABRIC_DEFECT_H
#define QSURF_FABRIC_DEFECT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace qsurf::fabric {

/**
 * The defect inputs one run is configured with (RunConfig-level: a
 * recipe, not a materialized map — grids depend on the circuit, so
 * the map is materialized per architecture at prepare time).
 */
struct DefectParams
{
    /** Fraction of tiles knocked out (and half that of links);
     *  0 is the perfect fabric. */
    double density = 0;

    /** Generator seed; maps are a pure function of
     *  (width, height, density, seed). */
    uint64_t seed = 0;

    /**
     * Explicit device spec as JSON text; non-empty overrides the
     * generator.  Format:
     *   {"dead_tiles": [[x, y], ...],
     *    "disabled_links": [[x1, y1, x2, y2], ...],
     *    "regions": [{"x0":.., "y0":.., "x1":.., "y1":..,
     *                 "multiplier":..}, ...]}
     * Link endpoints must be adjacent tile cells.  Entries outside a
     * machine's grid are ignored: a spec describes the device, and a
     * smaller machine occupies the window that fits.
     */
    std::string spec_json;

    /** @return true when any defect input is set. */
    bool
    enabled() const
    {
        return density > 0 || !spec_json.empty();
    }
};

/** A rectangular error-rate multiplier (inclusive tile bounds). */
struct DefectRegion
{
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;
    double multiplier = 1.0;
};

/**
 * A materialized defect map over a width x height tile grid.  The
 * default-constructed map is empty (the perfect fabric); queries on
 * it all answer "healthy".
 */
class DefectMap
{
  public:
    DefectMap() = default;

    /**
     * Deterministically knock out ~density of the tiles and
     * ~density/2 of the tile-to-tile links of a @p w x @p h grid,
     * and lay one seeded hot region whose error multiplier grows
     * with density.  Pure function of the arguments.
     */
    static DefectMap generate(int w, int h, double density,
                              uint64_t seed);

    /** Parse an explicit JSON spec (see DefectParams::spec_json);
     *  fatal()s on malformed JSON or non-adjacent link endpoints. */
    static DefectMap fromSpec(const std::string &json, int w, int h);

    /** Materialize @p p for a @p w x @p h grid: the spec when set,
     *  else the generator; an empty map when neither. */
    static DefectMap materialize(const DefectParams &p, int w, int h);

    /** @return true when the map has no defects of any kind. */
    bool
    empty() const
    {
        return num_dead == 0 && num_disabled == 0 && regions_.empty();
    }

    int width() const { return w; }
    int height() const { return h; }

    /** @return true when the tile at (x, y) is dead.  Out-of-grid
     *  coordinates are healthy (the map covers only its grid). */
    bool
    deadTile(int x, int y) const
    {
        if (x < 0 || x >= w || y < 0 || y >= h)
            return false;
        return !dead_.empty()
            && dead_[static_cast<size_t>(y * w + x)] != 0;
    }

    /** @return true when the link between adjacent tiles @p a and
     *  @p b is disabled (false off-grid). */
    bool linkDisabled(const Coord &a, const Coord &b) const;

    int numDeadTiles() const { return num_dead; }
    int numDisabledLinks() const { return num_disabled; }

    /** @return dead tiles / total tiles (0 for the empty map). */
    double
    deadFraction() const
    {
        return w * h > 0 ? static_cast<double>(num_dead) / (w * h)
                         : 0.0;
    }

    /** @return the error-rate multiplier at tile (x, y): the product
     *  of every region covering it (1.0 outside all regions). */
    double errorMultiplierAt(int x, int y) const;

    /** @return the grid-average error-rate multiplier (1.0 for the
     *  empty map) — what scales p_physical in the logical-error
     *  proxy. */
    double avgErrorMultiplier() const;

    /**
     * @return the dead-tile fraction of the bounding box spanned by
     * tiles @p a and @p b (inclusive) — the static per-route defect
     * exposure the hybrid arbiter prices corridor schemes with.
     * O(1) via prefix sums; 0 for the empty map.
     */
    double routeExposure(const Coord &a, const Coord &b) const;

    const std::vector<DefectRegion> &regions() const { return regions_; }

    /** Dead tiles in row-major order (heatmap emission). */
    std::vector<Coord> deadTiles() const;

    /**
     * @return the row-major dead-tile mask of the @p width x
     * @p height region at the origin (non-zero = dead), or an empty
     * mask for the empty map — a layout's partition::CellMask.
     */
    std::vector<uint8_t> deadMask(int width, int height) const;

    /** Disabled links as (a, b) adjacent tile pairs, horizontal
     *  first then vertical, in index order. */
    std::vector<std::pair<Coord, Coord>> disabledLinks() const;

  private:
    explicit DefectMap(int w, int h);

    /** Mark the tile at (x, y) dead (idempotent; in-grid only). */
    void killTile(int x, int y);

    /** Disable the link between adjacent tiles @p a and @p b
     *  (idempotent); fatal()s on non-adjacent endpoints, ignores
     *  off-grid ones. */
    void disableLink(const Coord &a, const Coord &b);

    /** Add an error-multiplier region (clamped to the grid). */
    void addRegion(const DefectRegion &region);

    void buildPrefix();

    int w = 0;
    int h = 0;
    int num_dead = 0;
    int num_disabled = 0;
    std::vector<uint8_t> dead_;   ///< w*h, row-major.
    std::vector<uint8_t> hlink_;  ///< (w-1)*h disabled +x links.
    std::vector<uint8_t> vlink_;  ///< w*(h-1) disabled +y links.
    std::vector<DefectRegion> regions_;

    /** Inclusive prefix sums of dead_ for routeExposure();
     *  (w+1)*(h+1).  Built when the map is complete, so every const
     *  query only reads and a shared map is safe on any thread. */
    std::vector<int32_t> dead_prefix_;
};

} // namespace qsurf::fabric

#endif // QSURF_FABRIC_DEFECT_H
