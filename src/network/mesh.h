/**
 * @file
 * Circuit-switched 2-D mesh (Section 6.1).
 *
 * Braids are messages routed on the mesh formed by tile corners:
 * "black defects are messages routed in the mesh, and the tile
 * corners are routers" (Figure 5).  Braids claim every node and link
 * of their route atomically when they open (the n-hops-in-1-cycle
 * property) and release them when they close.  Because defects
 * cannot coexist closely, there are no buffers and no virtual
 * channels: a node or link has at most one owner.
 *
 * The claim/release path is the simulators' innermost loop, so it is
 * allocation-free: Path keeps short routes in inline storage,
 * link indices come from tables precomputed at construction, and
 * tryClaim() walks a route once, validating and recording indices in
 * a single traversal instead of the routeFree-then-claim double walk.
 * The hot queries are inline.  Per-coordinate validity checks on the
 * hot entries (tryClaim, release, routeFree, nodeAvailable,
 * nodeBlocker, stepBlocker) are debug-only assert()s — callers own
 * path validity there; the checked panics remain on the cold claim()
 * entry.
 *
 * Only release() gives resources back, and it stamps each one it
 * frees with a running release count.  A failed claim reports the
 * busy resource that stopped it, so a scheduler can tell a retry
 * that must fail again (nothing it hit has been released) from one
 * that might succeed.
 */

#ifndef QSURF_NETWORK_MESH_H
#define QSURF_NETWORK_MESH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/arena.h"
#include "common/geometry.h"
#include "common/small_vector.h"

namespace qsurf::network {

/** A concrete route: the ordered list of routers it passes through. */
struct Path
{
    /** Inline capacity covering typical dimension-ordered routes. */
    using Nodes = SmallVector<Coord, 16>;

    Nodes nodes;

    /** @return number of links (hops). */
    int hops() const { return static_cast<int>(nodes.size()) - 1; }

    bool empty() const { return nodes.empty(); }

    /** @return source router. */
    const Coord &source() const { return nodes.front(); }

    /** @return destination router. */
    const Coord &dest() const { return nodes.back(); }
};

/**
 * A mesh resource: a router's node index, or numNodes() plus a
 * link's index.  Failed claims and route searches name the busy
 * resources that stopped them in these terms.
 */
using ResourceId = int32_t;

/** The busy resources that stopped a failed claim or route search. */
using Blockers = std::vector<ResourceId, ArenaAllocator<ResourceId>>;

/**
 * The mesh: a width x height grid of routers with unit-capacity
 * links, exclusive circuit-switched ownership, and busy-time
 * accounting.
 */
class Mesh
{
  public:
    /** No-owner sentinel. */
    static constexpr int no_owner = -1;

    /**
     * Permanent-defect sentinel.  A defective node or link carries
     * this owner forever: every availability check, tryClaim() walk
     * and BFS expansion sees it as "held by someone else" (real
     * owner ids are >= 0), release() cannot free it, and reset()
     * re-applies it — so damage needs no branch on any hot path.
     */
    static constexpr int defect_owner = -2;

    /** "Nothing blocks": the blocker queries' empty answer. */
    static constexpr ResourceId no_resource = -1;

    Mesh(int width, int height);

    int width() const { return w; }
    int height() const { return h; }

    /** @return total routers. */
    int numNodes() const { return w * h; }

    /** @return total links. */
    int numLinks() const { return static_cast<int>(link_owner.size()); }

    /** @return true when @p c is a valid router coordinate. */
    bool
    contains(const Coord &c) const
    {
        return c.x >= 0 && c.x < w && c.y >= 0 && c.y < h;
    }

    /** @return owner of router @p c, or no_owner. */
    int nodeOwner(const Coord &c) const;

    /** @return owner of the link a-b (must be adjacent routers). */
    int linkOwner(const Coord &a, const Coord &b) const;

    /** @return the resource id of router @p c. */
    ResourceId nodeResource(const Coord &c) const { return nodeIndex(c); }

    /** @return the resource id of the link a-b (adjacent routers). */
    ResourceId
    linkResource(const Coord &a, const Coord &b) const
    {
        return numNodes() + linkIndex(a, b);
    }

    /**
     * @return true when every node and link of @p path is free or
     * already owned by @p owner; otherwise false, with the first busy
     * resource of the walk in @p blocker when it is non-null.
     */
    bool routeFree(const Path &path, int owner,
                   ResourceId *blocker = nullptr) const;

    /**
     * Walk @p path once: validate that every node and link is free
     * (or already owned by @p owner) and, when they all are, claim
     * them using the indices recorded during the walk.  @return true
     * on success; on failure the mesh is unmodified and @p blocker,
     * when non-null, receives the first busy resource of the walk.
     */
    bool tryClaim(const Path &path, int owner,
                  ResourceId *blocker = nullptr);

    /**
     * @return what stops @p owner stepping from router @p from to the
     * adjacent router @p to: the router @p to when someone else holds
     * it, else the link between them when someone else holds that,
     * else no_resource.
     */
    ResourceId
    stepBlocker(const Coord &from, const Coord &to, int owner) const
    {
        int ia = nodeIndexFast(from);
        int ib = nodeIndexFast(to);
        return stepBlocker(ib, linkIndexFast(ia, ib), owner);
    }

    /**
     * Index form of stepBlocker(): what stops @p owner stepping into
     * router @p to (a node index) along link @p link (a link index).
     */
    ResourceId
    stepBlocker(int to, int link, int owner) const
    {
        if (heldByOther(node_owner[static_cast<size_t>(to)], owner))
            return to;
        if (heldByOther(link_owner[static_cast<size_t>(link)], owner))
            return numNodes() + link;
        return no_resource;
    }

    /**
     * @return router @p c's resource id when an owner other than
     * @p owner and @p lent holds it, else no_resource.  Every route
     * into or out of @p c then fails for @p owner, so this one test
     * stands for the walk of any route ending there.
     */
    ResourceId
    nodeBlocker(const Coord &c, int owner, int lent = no_owner) const
    {
        int ni = nodeIndexFast(c);
        int cur = node_owner[static_cast<size_t>(ni)];
        return heldByOther(cur, owner) && cur != lent ? ni : no_resource;
    }

    /** @return the index of router @p node's +x link, or -1 on the
     *  east edge. */
    int
    rightLink(int node) const
    {
        return right_link[static_cast<size_t>(node)];
    }

    /** @return the index of router @p node's +y link, or -1 on the
     *  south edge. */
    int
    downLink(int node) const
    {
        return down_link[static_cast<size_t>(node)];
    }

    /**
     * Claim every node and link of @p path for @p owner.
     * panic()s if any resource is held by someone else — use
     * tryClaim() when failure is expected.
     */
    void claim(const Path &path, int owner);

    /**
     * Release every node and link of @p path owned by @p owner, and
     * stamp each one freed with the new releaseCount().  Claims only
     * take resources, so a claim or search that failed on a busy
     * resource cannot succeed until that resource's stamp moves.
     */
    void release(const Path &path, int owner);

    /**
     * Free router @p node (a node index) when @p owner holds it, like
     * release() but without stamping: for a hold that is lent out
     * only for the span of one claim attempt, after which the holder
     * takes it back or the claimer keeps it (a patch terminal's
     * reservation, suspended while a chain ending there claims).  To
     * every other requester the router never came free.
     */
    void
    suspendNode(int node, int owner)
    {
        int &cur = node_owner[static_cast<size_t>(node)];
        if (cur == owner)
            cur = no_owner;
    }

    /**
     * Take router @p node (a node index) for @p owner when it is
     * free, and leave it as it is when anyone holds it: restores a
     * hold that suspendNode() lent out and no claim kept.
     */
    void
    holdNode(int node, int owner)
    {
        int &cur = node_owner[static_cast<size_t>(node)];
        if (cur == no_owner)
            cur = owner;
    }

    /** @return release() calls so far: the latest release stamp. */
    uint64_t releaseCount() const { return releases; }

    /** @return the releaseCount() that last freed @p r (0 = never). */
    uint64_t
    releaseStamp(ResourceId r) const
    {
        return release_stamp[static_cast<size_t>(r)];
    }

    /** @return true if router @p c is free or owned by @p owner. */
    bool
    nodeAvailable(const Coord &c, int owner) const
    {
        return nodeBlocker(c, owner) == no_resource;
    }

    /**
     * Mark router @p c permanently defective (idempotent).  Apply
     * before simulation starts: the router must not be claimed.
     */
    void disableNode(const Coord &c);

    /** Mark link a-b permanently defective (idempotent, adjacent
     *  routers, must not be claimed). */
    void disableLink(const Coord &a, const Coord &b);

    /** @return true when router @p c is defective. */
    bool
    nodeDefective(const Coord &c) const
    {
        return nodeOwner(c) == defect_owner;
    }

    /** @return true when link a-b is defective. */
    bool
    linkDefective(const Coord &a, const Coord &b) const
    {
        return linkOwner(a, b) == defect_owner;
    }

    /** @return permanently defective routers. */
    int
    numDefectiveNodes() const
    {
        return static_cast<int>(defect_nodes.size());
    }

    /** @return permanently defective links. */
    int
    numDefectiveLinks() const
    {
        return static_cast<int>(defect_links.size());
    }

    /** Advance time one cycle, accumulating busy-link statistics. */
    void tick() { tick(1); }

    /**
     * Advance time @p n cycles at once.  Ownership is unchanged, so
     * busy-link accounting stays exact: each elided cycle would have
     * accumulated the same busyLinks().  This is what lets the
     * event-driven schedulers fast-forward without drifting the
     * utilization statistics.
     */
    void
    tick(uint64_t n)
    {
        ticks += n;
        busy_link_cycles += static_cast<uint64_t>(busy_links) * n;
    }

    /** @return cycles ticked so far. */
    uint64_t cycles() const { return ticks; }

    /** @return currently claimed links. */
    int busyLinks() const { return busy_links; }

    /**
     * @return the maximum simultaneously claimed links seen so far —
     * the congestion high-water mark mixed-scheme arbitration reacts
     * to (a braid track and a surgery corridor holding links at the
     * same time both count).
     */
    int peakBusyLinks() const { return peak_busy_links; }

    /** @return the fraction of links claimed right now, in [0, 1]. */
    double
    loadNow() const
    {
        return numLinks()
            ? static_cast<double>(busy_links) / numLinks()
            : 0.0;
    }

    /** @return average fraction of links busy per cycle so far. */
    double utilization() const;

    /** Clear ownership and statistics; every resource counts as
     *  released. */
    void reset();

  private:
    int nodeIndex(const Coord &c) const;
    int linkIndex(const Coord &a, const Coord &b) const;

    /** Hot-path node index: bounds are debug-only assert()s. */
    int
    nodeIndexFast(const Coord &c) const
    {
        assert(contains(c) && "router outside the mesh");
        return linearIndex(c, w);
    }

    /**
     * Hot-path link index from the precomputed tables, given the two
     * endpoints' node indices; adjacency is a debug-only assert().
     */
    int
    linkIndexFast(int ia, int ib) const
    {
        int lo = std::min(ia, ib);
        // Index distance 1 is a horizontal hop — except on a 1-wide
        // mesh, where only vertical links exist.
        int li = std::abs(ib - ia) == 1 && w > 1
            ? right_link[static_cast<size_t>(lo)]
            : down_link[static_cast<size_t>(lo)];
        assert((std::abs(ib - ia) == 1 || std::abs(ib - ia) == w)
               && "link endpoints not adjacent");
        assert(li >= 0 && "link leaves the mesh");
        return li;
    }

    /** @return true when current owner @p cur is someone other than
     *  @p owner: the resource is busy to @p owner. */
    static bool
    heldByOther(int cur, int owner)
    {
        return cur != no_owner && cur != owner;
    }

    int w;
    int h;
    std::vector<int> node_owner;
    std::vector<int> link_owner;

    /** Link index of the +x link of each node (-1 on the edge). */
    std::vector<int32_t> right_link;

    /** Link index of the +y link of each node (-1 on the edge). */
    std::vector<int32_t> down_link;

    /** tryClaim() scratch: indices recorded by the validation walk. */
    std::vector<int32_t> walk_nodes;
    std::vector<int32_t> walk_links;

    /** Per resource id: the releaseCount() that last freed it. */
    std::vector<uint64_t> release_stamp;
    uint64_t releases = 0;

    /** Defective resource indices, re-applied by reset(). */
    std::vector<int32_t> defect_nodes;
    std::vector<int32_t> defect_links;

    int busy_links = 0;
    int peak_busy_links = 0;
    uint64_t ticks = 0;
    uint64_t busy_link_cycles = 0;
};

} // namespace qsurf::network

#endif // QSURF_NETWORK_MESH_H
