/**
 * @file
 * Balanced 2-way graph bisection: multilevel heavy-edge-matching
 * coarsening, greedy BFS-based initial partition, and
 * Fiduccia-Mattheyses refinement at every uncoarsening level — the
 * same algorithmic recipe as METIS [42], reimplemented from scratch.
 *
 * The work runs on FlatGraph (CSR) copies: every coarse level is
 * built into buffers a Bisector keeps across calls, and each keeps
 * the neighbour order Graph::addEdge would give it (a contracted
 * edge sits at its first occurrence, carrying the summed weight),
 * since matching and the initial partition read that order.  FM
 * moves come from gain buckets where the gain range allows, and
 * from a scan otherwise (see refine.h); both make the same moves.
 */

#ifndef QSURF_PARTITION_BISECT_H
#define QSURF_PARTITION_BISECT_H

#include <vector>

#include "common/rng.h"
#include "partition/graph.h"
#include "partition/refine.h"

namespace qsurf::partition {

/** Tunables for the bisection. */
struct BisectOptions
{
    /**
     * Target share of total vertex weight in side 0, in [0,1].
     * 0.5 is a balanced bisection; the grid embedder asks for
     * uneven splits when a region's two halves differ in capacity.
     */
    double target_fraction = 0.5;

    /** Allowed relative imbalance around the target (epsilon). */
    double imbalance = 0.05;

    /** Stop coarsening below this many vertices. */
    int coarsen_threshold = 32;

    /** Random restarts of the initial partition at the coarsest level. */
    int restarts = 4;

    /** FM passes per level. */
    int refine_passes = 6;
};

/** Result of a bisection. */
struct Bisection
{
    /** 0/1 side of every vertex. */
    std::vector<int> side;
    /** Total edge weight crossing the cut. */
    int64_t cut = 0;
    /** Vertex weight placed on side 0. */
    int64_t side0_weight = 0;
};

/**
 * Bisect @p g into two balanced parts minimizing cut weight.
 *
 * Deterministic for a given @p rng state.  Handles disconnected
 * graphs, isolated vertices, and n < 2 (everything on side 0).
 */
Bisection bisect(const Graph &g, Rng &rng, const BisectOptions &opts = {});

/**
 * The bisection with reusable buffers, for callers that bisect many
 * graphs (the grid layout bisects one per region): after the first
 * few calls it allocates only when a graph outgrows all earlier ones.
 * Not thread-safe; use one per thread.
 */
class Bisector
{
  public:
    /**
     * Bisect @p g exactly as bisect() does, drawing the same numbers
     * from @p rng.
     *
     * @return the 0/1 side of every vertex, valid until the next call.
     */
    const std::vector<int> &run(const FlatGraph &g, Rng &rng,
                                const BisectOptions &opts);

  private:
    /** One coarse level: its graph, and each finer vertex's coarse
     *  vertex in it. */
    struct Level
    {
        FlatGraph graph;
        std::vector<int> fine_to_coarse;
    };

    void coarsen(const FlatGraph &g, Rng &rng, Level &out);
    void initialPartition(const FlatGraph &g, Rng &rng,
                          int64_t target_w0, std::vector<int> &side);

    /** Coarse levels, finest first; only the first `depth` of a call
     *  are live, the rest keep their buffers for later calls. */
    std::vector<Level> levels_;
    FmRefiner fm_;
    /** The current candidate and the best side assignment so far. */
    std::vector<int> side_, best_;
    /** Coarsening scratch: visit order, matching, and the end of
     *  each coarse adjacency list while it fills. */
    std::vector<int> order_, match_, fill_;
    /** Initial-partition scratch: BFS queue and visited flags. */
    std::vector<int> queue_;
    std::vector<char> visited_;
};

} // namespace qsurf::partition

#endif // QSURF_PARTITION_BISECT_H
