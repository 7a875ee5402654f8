/**
 * @file
 * Fiduccia-Mattheyses boundary refinement for 2-way partitions:
 * single-vertex moves with gain tracking, a tentative move sequence,
 * and rollback to the best prefix.  Each move scans every unlocked
 * vertex (no gain buckets), so a pass takes O(n^2) time.
 */

#ifndef QSURF_PARTITION_REFINE_H
#define QSURF_PARTITION_REFINE_H

#include <vector>

#include "partition/graph.h"

namespace qsurf::partition {

/** Balance envelope for refinement moves. */
struct BalanceConstraint
{
    int64_t min_side0 = 0; ///< Minimum vertex weight on side 0.
    int64_t max_side0 = 0; ///< Maximum vertex weight on side 0.
};

/**
 * Run up to @p passes FM passes on @p side in place.
 *
 * @param g        the graph.
 * @param side     0/1 assignment, modified in place.
 * @param balance  weight envelope side 0 must stay within.
 * @param passes   maximum number of passes (each pass tries to move
 *                 every vertex once).
 * @return the cut weight after refinement.
 */
int64_t fmRefine(const Graph &g, std::vector<int> &side,
                 const BalanceConstraint &balance, int passes);

} // namespace qsurf::partition

#endif // QSURF_PARTITION_REFINE_H
