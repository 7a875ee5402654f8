/**
 * @file
 * Route construction: dimension-ordered (XY / YX) paths and the
 * adaptive breadth-first detour used "to improve forward progress in
 * a busy network ... after certain timeouts" (Section 6.1).
 *
 * The detour search runs on every escalated placement attempt of
 * every congested cycle, so its working set (predecessor, visited
 * and frontier arrays) lives in a caller-owned BfsScratch that is
 * epoch-stamped and reused: after the first search on a mesh, no
 * further allocations happen regardless of how many searches run.
 */

#ifndef QSURF_NETWORK_ROUTE_H
#define QSURF_NETWORK_ROUTE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "network/mesh.h"

namespace qsurf::network {

/** @return the X-then-Y dimension-ordered path from src to dst. */
Path xyRoute(const Coord &src, const Coord &dst);

/** @return the Y-then-X dimension-ordered path from src to dst. */
Path yxRoute(const Coord &src, const Coord &dst);

/**
 * Reusable working set of adaptiveRoute().  Visited marks are epoch
 * stamps, so clearing between searches is a single counter bump;
 * the arrays only (re)allocate when the mesh grows or the epoch
 * counter wraps.
 */
class BfsScratch
{
  public:
    /**
     * Size the arrays for @p num_nodes and open a fresh epoch.  The
     * backing store comes from the thread's bound scratch arena when
     * one is set (Arena::Scope; the sweep driver and compile service
     * bind one per work unit), otherwise from the heap; an arena
     * reset between searches is detected via its generation counter
     * and re-acquires the arrays.  Results never depend on which
     * store backs the search.
     */
    void
    beginSearch(int num_nodes)
    {
        auto n = static_cast<size_t>(num_nodes);
        Arena *a = Arena::scratch();
        bool recycled = a != arena_
            || (a && a->generation() != arena_generation_);
        if (cap_ < n || recycled || epoch_ == UINT32_MAX) {
            if (cap_ < n || recycled) {
                arena_ = a;
                arena_generation_ = a ? a->generation() : 0;
                size_t want = std::max(cap_, n);
                if (a) {
                    prev_ = a->allocArray<int32_t>(want);
                    seen_ = a->allocArray<uint32_t>(want);
                    heap_.reset();
                } else {
                    heap_ = std::make_unique<char[]>(
                        want * (sizeof(int32_t) + sizeof(uint32_t)));
                    prev_ = reinterpret_cast<int32_t *>(heap_.get());
                    seen_ = reinterpret_cast<uint32_t *>(
                        heap_.get() + want * sizeof(int32_t));
                }
                cap_ = want;
            }
            std::fill(prev_, prev_ + cap_, -1);
            std::fill(seen_, seen_ + cap_, 0u);
            epoch_ = 0;
        }
        ++epoch_;
        frontier_.clear();
    }

    bool
    seen(int node) const
    {
        return seen_[static_cast<size_t>(node)] == epoch_;
    }

    void
    visit(int node, int from)
    {
        seen_[static_cast<size_t>(node)] = epoch_;
        prev_[static_cast<size_t>(node)] = from;
    }

    int prev(int node) const { return prev_[static_cast<size_t>(node)]; }

    /** FIFO frontier of node indices (vector + read cursor). */
    std::vector<int32_t> &frontier() { return frontier_; }

  private:
    int32_t *prev_ = nullptr;
    uint32_t *seen_ = nullptr;
    size_t cap_ = 0;
    Arena *arena_ = nullptr; ///< Backing arena; null = heap_.
    uint64_t arena_generation_ = 0;
    std::unique_ptr<char[]> heap_;
    std::vector<int32_t> frontier_;
    uint32_t epoch_ = 0;
};

/**
 * Shortest path through currently-free resources, found by BFS.
 *
 * @param mesh     the mesh with current ownership state.
 * @param src      source router.
 * @param dst      destination router.
 * @param owner    requester id; resources it already owns count as
 *                 available (needed to re-route its own braid).
 * @param scratch  caller-owned reusable working set.
 * @param boundary when non-null and the search fails, receives what
 *                 stopped it: the busy endpoint, or every busy
 *                 router or link bounding the explored region (any
 *                 free path would have to cross one of them).
 *                 Appended to; holds partial data on success.
 * @return a free path, or nullopt when src and dst are disconnected
 *         in the free subgraph.
 */
std::optional<Path> adaptiveRoute(const Mesh &mesh, const Coord &src,
                                  const Coord &dst, int owner,
                                  BfsScratch &scratch,
                                  Blockers *boundary = nullptr);

/** Convenience overload allocating a one-shot scratch. */
std::optional<Path> adaptiveRoute(const Mesh &mesh, const Coord &src,
                                  const Coord &dst, int owner,
                                  Blockers *boundary = nullptr);

} // namespace qsurf::network

#endif // QSURF_NETWORK_ROUTE_H
