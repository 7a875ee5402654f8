#include "network/route.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace qsurf::network {

namespace {

void
walkX(Path &path, Coord from, int to_x)
{
    int step = to_x > from.x ? 1 : -1;
    while (from.x != to_x) {
        from.x += step;
        path.nodes.push_back(from);
    }
}

void
walkY(Path &path, Coord from, int to_y)
{
    int step = to_y > from.y ? 1 : -1;
    while (from.y != to_y) {
        from.y += step;
        path.nodes.push_back(from);
    }
}

} // namespace

Path
xyRoute(const Coord &src, const Coord &dst)
{
    Path path;
    path.nodes.push_back(src);
    walkX(path, src, dst.x);
    walkY(path, Coord{dst.x, src.y}, dst.y);
    return path;
}

Path
yxRoute(const Coord &src, const Coord &dst)
{
    Path path;
    path.nodes.push_back(src);
    walkY(path, src, dst.y);
    walkX(path, Coord{src.x, dst.y}, dst.x);
    return path;
}

std::optional<Path>
adaptiveRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
              int owner, BfsScratch &scratch, Blockers *boundary)
{
    fatalIf(!mesh.contains(src) || !mesh.contains(dst),
            "route endpoint outside the mesh");
    for (const Coord &end : {src, dst}) {
        if (!mesh.nodeAvailable(end, owner)) {
            if (boundary)
                boundary->push_back(mesh.nodeResource(end));
            return std::nullopt;
        }
    }
    if (src == dst)
        return Path{{src}};

    // BFS over free routers/links.  Expansion order (east, west,
    // south, north; first-found wins) is part of the deterministic
    // results contract — it must not change.
    int width = mesh.width();
    auto idx = [width](const Coord &c) {
        return linearIndex(c, width);
    };

    scratch.beginSearch(mesh.numNodes());
    std::vector<int32_t> &frontier = scratch.frontier();
    frontier.push_back(idx(src));
    scratch.visit(idx(src), -1);

    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
        Coord cur = fromLinearIndex(frontier[head], width);
        static constexpr std::array<Coord, 4> dirs{
            {{1, 0}, {-1, 0}, {0, 1}, {0, -1}}};
        for (const Coord &d : dirs) {
            Coord next{cur.x + d.x, cur.y + d.y};
            if (!mesh.contains(next) || scratch.seen(idx(next)))
                continue;
            ResourceId busy = mesh.stepBlocker(cur, next, owner);
            if (busy != Mesh::no_resource) {
                if (boundary)
                    boundary->push_back(busy);
                // A busy router stays busy for the whole search:
                // mark it seen so it is tested (and reported) once.
                if (busy == idx(next))
                    scratch.visit(busy, -1);
                continue;
            }
            scratch.visit(idx(next), idx(cur));
            if (next == dst) {
                found = true;
                break;
            }
            frontier.push_back(idx(next));
        }
    }
    if (!found)
        return std::nullopt;

    Path path;
    for (int c = idx(dst); c >= 0; c = scratch.prev(c))
        path.nodes.push_back(fromLinearIndex(c, width));
    std::reverse(path.nodes.begin(), path.nodes.end());
    return path;
}

std::optional<Path>
adaptiveRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
              int owner, Blockers *boundary)
{
    BfsScratch scratch;
    return adaptiveRoute(mesh, src, dst, owner, scratch, boundary);
}

} // namespace qsurf::network
