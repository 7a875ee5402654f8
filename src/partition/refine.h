/**
 * @file
 * Fiduccia-Mattheyses boundary refinement for 2-way partitions:
 * single-vertex moves with gain tracking, a tentative move sequence,
 * and rollback to the best prefix.
 *
 * Each move takes the unlocked, balance-feasible vertex of highest
 * gain, the lowest-indexed one on ties.  Whether a move is feasible
 * depends only on the vertex's side and weight, so the refiner keeps
 * gain buckets: one index-ordered bitset per (side, distinct vertex
 * weight, gain).  A move then looks at the top nonempty bucket of
 * each feasible (side, weight) group and takes the lowest set bit:
 * exactly the vertex a scan of every unlocked vertex would pick,
 * found without visiting the others.
 *
 * Buckets pay off only when the gain range is narrow: a gain lies in
 * [-D, D], D being the graph's largest weighted degree, and a pass
 * walks its top-bucket pointers down through empty buckets.  So the
 * refiner uses them when (2D + 1) times the number of distinct vertex
 * weights is at most 4n (and the bitsets fit in 8 MiB), and otherwise
 * falls back to that scan, O(n^2) per pass, which heavy-edge graphs
 * (a few dozen vertices, D in the thousands) run faster.  The choice
 * reads the graph alone, and both paths move the same vertices.
 */

#ifndef QSURF_PARTITION_REFINE_H
#define QSURF_PARTITION_REFINE_H

#include <cstdint>
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
 * FM refinement with reusable buffers: one instance serves any
 * number of graphs, and allocates only when a graph needs more room
 * than every earlier one.  Not thread-safe; use one per thread.
 */
class FmRefiner
{
  public:
    /**
     * Run up to @p passes FM passes on @p side in place.
     *
     * @param g        the graph.
     * @param side     0/1 assignment, modified in place.
     * @param balance  weight envelope side 0 must stay within.
     * @param passes   maximum number of passes (each pass tries to
     *                 move every vertex once); stops early after a
     *                 pass that does not lower the cut.
     * @return the cut weight after refinement.
     */
    int64_t refine(const FlatGraph &g, std::vector<int> &side,
                   const BalanceConstraint &balance, int passes);

  private:
    /** One pass; @return true if the cut improved. */
    bool pass(const FlatGraph &g, std::vector<int> &side,
              const BalanceConstraint &balance, int64_t &side0_weight);

    /** @return the vertex to move next, or -1: the scan form. */
    int pickByScan(const FlatGraph &g, const std::vector<int> &side,
                   const BalanceConstraint &balance, int64_t w0) const;

    /** @return the vertex to move next, or -1: the bucket form. */
    int pickFromBuckets(const BalanceConstraint &balance, int64_t w0);

    /** @return the bucket of unlocked vertex @p v at its gain. */
    size_t
    bucketOf(int v) const
    {
        auto i = static_cast<size_t>(v);
        return static_cast<size_t>(group_[i]) * range_
             + static_cast<size_t>(gain_[i] + max_gain_);
    }

    /** Add @p v to / remove it from its bucket. */
    void insert(int v);
    void erase(int v);

    /** Per vertex: gain of a move, locked flag, weight class. */
    std::vector<int64_t> gain_;
    std::vector<char> locked_;
    std::vector<int> class_;
    /** Moves of the current pass, in order. */
    std::vector<int> moves_;

    /** Whether this graph moves from buckets (see the file comment). */
    bool buckets_ = false;
    /** D: the largest weighted degree, so every gain is in [-D, D]. */
    int64_t max_gain_ = 0;
    /** 2D + 1 buckets per group. */
    size_t range_ = 0;
    /** 64-bit words per bucket bitset. */
    size_t words_ = 0;
    /** Distinct vertex weights, ascending: the weight classes. */
    std::vector<int64_t> class_weight_;
    /** Per vertex: its group, side * classes + weight class. */
    std::vector<int> group_;
    /** Per group: no nonempty bucket lies above this gain index. */
    std::vector<int64_t> top_;
    /** Per bucket: member count, and its bitset (words_ words). */
    std::vector<int> count_;
    std::vector<uint64_t> bits_;
};

} // namespace qsurf::partition

#endif // QSURF_PARTITION_REFINE_H
