#include "network/route.h"

#include <algorithm>

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
        ResourceId busy = mesh.nodeBlocker(end, owner);
        if (busy != Mesh::no_resource) {
            if (boundary)
                boundary->push_back(busy);
            return std::nullopt;
        }
    }
    if (src == dst)
        return Path{{src}};

    // BFS over free routers/links, on node and link indices.
    int width = mesh.width();
    int from = linearIndex(src, width);
    int to = linearIndex(dst, width);
    scratch.beginSearch(mesh.numNodes());
    std::vector<int32_t> &frontier = scratch.frontier();
    frontier.push_back(from);
    scratch.visit(from, -1);

    // Step from router @p cur over link @p link into router @p next;
    // @return true when that reaches dst.
    auto step = [&](int cur, int next, int link) {
        if (scratch.seen(next))
            return false;
        ResourceId busy = mesh.stepBlocker(next, link, owner);
        if (busy != Mesh::no_resource) {
            if (boundary)
                boundary->push_back(busy);
            // A busy router stays busy for the whole search: mark it
            // seen so it is tested (and reported) once.
            if (busy == next)
                scratch.visit(busy, -1);
            return false;
        }
        scratch.visit(next, cur);
        if (next == to)
            return true;
        frontier.push_back(next);
        return false;
    };

    // Expansion order (east, west, south, north; first-found wins)
    // is part of the deterministic results contract — it must not
    // change.
    int last_row = mesh.numNodes() - width;
    bool found = false;
    for (size_t head = 0; head < frontier.size() && !found; ++head) {
        int cur = frontier[head];
        int x = cur % width;
        found = (x + 1 < width && step(cur, cur + 1, mesh.rightLink(cur)))
            || (x > 0 && step(cur, cur - 1, mesh.rightLink(cur - 1)))
            || (cur < last_row
                && step(cur, cur + width, mesh.downLink(cur)))
            || (cur >= width
                && step(cur, cur - width, mesh.downLink(cur - width)));
    }
    if (!found)
        return std::nullopt;

    Path path;
    for (int c = to; c >= 0; c = scratch.prev(c))
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
