#include "network/mesh.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace qsurf::network {

Mesh::Mesh(int width, int height)
    : w(width), h(height)
{
    fatalIf(w < 1 || h < 1, "mesh must be at least 1x1, got ", w, "x",
            h);
    node_owner.assign(static_cast<size_t>(w * h), no_owner);
    // Horizontal links first ((w-1) per row), then vertical.
    link_owner.assign(static_cast<size_t>((w - 1) * h + w * (h - 1)),
                      no_owner);

    // Per-node link tables: the hot path never recomputes a link
    // index from coordinates.
    right_link.assign(static_cast<size_t>(w * h), -1);
    down_link.assign(static_cast<size_t>(w * h), -1);
    release_stamp.assign(node_owner.size() + link_owner.size(), 0);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            auto n = static_cast<size_t>(y * w + x);
            if (x < w - 1)
                right_link[n] = y * (w - 1) + x;
            if (y < h - 1)
                down_link[n] = (w - 1) * h + y * w + x;
        }
    }
}

int
Mesh::nodeIndex(const Coord &c) const
{
    panicIf(!contains(c), "router ", c.x, ",", c.y, " outside ", w, "x",
            h, " mesh");
    return linearIndex(c, w);
}

int
Mesh::linkIndex(const Coord &a, const Coord &b) const
{
    panicIf(manhattan(a, b) != 1, "link endpoints not adjacent");
    panicIf(!contains(a) || !contains(b), "link endpoint outside mesh");
    const Coord &lo = a < b ? a : b;
    if (a.y == b.y)
        return lo.y * (w - 1) + lo.x;
    return (w - 1) * h + lo.y * w + lo.x;
}

int
Mesh::nodeOwner(const Coord &c) const
{
    return node_owner[static_cast<size_t>(nodeIndex(c))];
}

int
Mesh::linkOwner(const Coord &a, const Coord &b) const
{
    return link_owner[static_cast<size_t>(linkIndex(a, b))];
}

void
Mesh::disableNode(const Coord &c)
{
    auto &slot = node_owner[static_cast<size_t>(nodeIndex(c))];
    if (slot == defect_owner)
        return;
    panicIf(slot != no_owner,
            "cannot disable claimed router ", c.x, ",", c.y);
    slot = defect_owner;
    defect_nodes.push_back(
        static_cast<int32_t>(nodeIndex(c)));
}

void
Mesh::disableLink(const Coord &a, const Coord &b)
{
    int li = linkIndex(a, b);
    auto &slot = link_owner[static_cast<size_t>(li)];
    if (slot == defect_owner)
        return;
    panicIf(slot != no_owner, "cannot disable a claimed link");
    slot = defect_owner;
    defect_links.push_back(static_cast<int32_t>(li));
}

namespace {

/** Report @p r through @p blocker (when wanted); @return false. */
bool
blockedBy(ResourceId *blocker, ResourceId r)
{
    if (blocker)
        *blocker = r;
    return false;
}

} // namespace

bool
Mesh::routeFree(const Path &path, int owner, ResourceId *blocker) const
{
    if (path.empty())
        return true;
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = nodeIndexFast(c);
        int cur = node_owner[static_cast<size_t>(ni)];
        if (cur != no_owner && cur != owner)
            return blockedBy(blocker, ni);
        if (prev >= 0) {
            int li = linkIndexFast(prev, ni);
            cur = link_owner[static_cast<size_t>(li)];
            if (cur != no_owner && cur != owner)
                return blockedBy(blocker, numNodes() + li);
        }
        prev = ni;
    }
    return true;
}

bool
Mesh::tryClaim(const Path &path, int owner, ResourceId *blocker)
{
    assert(owner != no_owner && "cannot claim with the no-owner id");

    // Single traversal: validate while recording every index the
    // claim will touch, so success never re-derives them.
    walk_nodes.clear();
    walk_links.clear();
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = nodeIndexFast(c);
        int cur = node_owner[static_cast<size_t>(ni)];
        if (cur != no_owner && cur != owner)
            return blockedBy(blocker, ni);
        if (prev >= 0) {
            int li = linkIndexFast(prev, ni);
            cur = link_owner[static_cast<size_t>(li)];
            if (cur != no_owner && cur != owner)
                return blockedBy(blocker, numNodes() + li);
            walk_links.push_back(li);
        }
        walk_nodes.push_back(ni);
        prev = ni;
    }

    for (int32_t ni : walk_nodes)
        node_owner[static_cast<size_t>(ni)] = owner;
    for (int32_t li : walk_links) {
        auto &slot = link_owner[static_cast<size_t>(li)];
        if (slot == no_owner)
            ++busy_links;
        slot = owner;
    }
    peak_busy_links = std::max(peak_busy_links, busy_links);
    return true;
}

void
Mesh::claim(const Path &path, int owner)
{
    panicIf(owner == no_owner, "cannot claim with the no-owner id");
    // Cold entry: keep the checked per-coordinate validation that
    // the hot tryClaim() walk demotes to asserts.
    for (size_t i = 0; i < path.nodes.size(); ++i) {
        nodeIndex(path.nodes[i]);
        if (i + 1 < path.nodes.size())
            linkIndex(path.nodes[i], path.nodes[i + 1]);
    }
    panicIf(!tryClaim(path, owner), "claim on a busy route");
}

void
Mesh::release(const Path &path, int owner)
{
    uint64_t stamp = ++releases;
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = nodeIndexFast(c);
        auto &node = node_owner[static_cast<size_t>(ni)];
        if (node == owner) {
            node = no_owner;
            release_stamp[static_cast<size_t>(ni)] = stamp;
        }
        if (prev >= 0) {
            int li = linkIndexFast(prev, ni);
            auto &link = link_owner[static_cast<size_t>(li)];
            if (link == owner) {
                link = no_owner;
                --busy_links;
                release_stamp[static_cast<size_t>(numNodes() + li)] =
                    stamp;
            }
        }
        prev = ni;
    }
}

double
Mesh::utilization() const
{
    if (ticks == 0 || numLinks() == 0)
        return 0;
    return static_cast<double>(busy_link_cycles)
        / (static_cast<double>(ticks) * numLinks());
}

void
Mesh::reset()
{
    std::fill(node_owner.begin(), node_owner.end(), no_owner);
    std::fill(link_owner.begin(), link_owner.end(), no_owner);
    // Damage is permanent: a reset clears ownership, not physics.
    for (int32_t ni : defect_nodes)
        node_owner[static_cast<size_t>(ni)] = defect_owner;
    for (int32_t li : defect_links)
        link_owner[static_cast<size_t>(li)] = defect_owner;
    std::fill(release_stamp.begin(), release_stamp.end(), ++releases);
    busy_links = 0;
    peak_busy_links = 0;
    ticks = 0;
    busy_link_cycles = 0;
}

} // namespace qsurf::network
