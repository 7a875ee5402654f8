#include "surgery/patch_arch.h"

#include <algorithm>

#include "circuit/schedule.h"
#include "common/logging.h"

namespace qsurf::surgery {

namespace {

/** Step @p from one unit toward @p to (+1 on a tie; ties reach the
 *  routing waypoints only via walkTo's unused axis — corridorRoute
 *  never lets a tie pick a corridor side). */
int
stepToward(int from, int to)
{
    return to > from ? 1 : to < from ? -1 : 1;
}

/** Append @p c to @p nodes unless it repeats the last node. */
void
append(network::Path::Nodes &nodes, const Coord &c)
{
    if (nodes.empty() || nodes.back() != c)
        nodes.push_back(c);
}

/** Append every node from the last one to @p to, axis-aligned. */
void
walkTo(network::Path::Nodes &nodes, const Coord &to)
{
    Coord at = nodes.back();
    panicIf(at.x != to.x && at.y != to.y,
            "corridor walk must be axis-aligned");
    int dx = stepToward(at.x, to.x);
    int dy = stepToward(at.y, to.y);
    while (at.x != to.x) {
        at.x += dx;
        append(nodes, at);
    }
    while (at.y != to.y) {
        at.y += dy;
        append(nodes, at);
    }
}

/** @return index of @p v in the sorted @p coords, or -1. */
int
indexOf(const std::vector<int> &coords, int v)
{
    auto it = std::lower_bound(coords.begin(), coords.end(), v);
    if (it == coords.end() || *it != v)
        return -1;
    return static_cast<int>(it - coords.begin());
}

/**
 * @return the first lane coordinate crossed travelling from @p from
 * to @p to (strictly between them), or -1 when the span crosses none.
 */
int
laneBetween(const std::vector<int> &lanes, int from, int to)
{
    if (from < to) {
        auto it = std::upper_bound(lanes.begin(), lanes.end(), from);
        if (it != lanes.end() && *it < to)
            return *it;
        return -1;
    }
    auto it = std::lower_bound(lanes.begin(), lanes.end(), from);
    if (it != lanes.begin() && *(it - 1) > to)
        return *(it - 1);
    return -1;
}

} // namespace

Coord
PatchArch::center(const Coord &patch) const
{
    return Coord{col_x[static_cast<size_t>(patch.x)],
                 row_y[static_cast<size_t>(patch.y)]};
}

void
PatchArch::buildCoordinateMaps(int lane_spacing)
{
    auto build = [lane_spacing](int cells, std::vector<int> &centers,
                                std::vector<int> &lanes) {
        centers.resize(static_cast<size_t>(cells));
        int c = 1;
        for (int p = 0; p < cells; ++p) {
            if (p > 0) {
                c += 2;
                if (lane_spacing > 0 && p % lane_spacing == 0) {
                    // The lane slides in between the boundary
                    // corridor and this patch column/row, flanked by
                    // plain corridors on both sides so patch rings
                    // stay lane-free.
                    lanes.push_back(c);
                    c += 2;
                }
            }
            centers[static_cast<size_t>(p)] = c;
        }
    };
    build(pw, col_x, lane_cols_x);
    build(ph, row_y, lane_rows_y);
    mw = col_x.back() + 2;
    mh = row_y.back() + 2;
}

PatchArch::PatchArch(const circuit::InteractionGraph &graph,
                     const PatchArchOptions &opts)
{
    nq = graph.num_qubits;
    fatalIf(nq < 1, "patch architecture needs at least one qubit");
    fatalIf(opts.patches_per_factory < 1,
            "patches_per_factory must be >= 1");
    bool lanes = opts.layout_objective
        == partition::LayoutObjective::CorridorLanes;
    fatalIf(lanes && opts.lane_spacing < 1,
            "lane_spacing must be >= 1, got ", opts.lane_spacing);

    // Near-square data region plus one factory column on the right,
    // mirroring the braid machine's Figure 3b arrangement.  On a
    // damaged fabric the grid grows one data row at a time until the
    // live cells hold every qubit and at least one factory patch
    // survives; the map re-materializes per candidate grid, so the
    // machine is still a pure function of (graph, options).
    auto [dw, dh0] = partition::gridShape(nq);
    int dh = dh0;
    int want_fac = std::max(1, nq / opts.patches_per_factory);
    for (int grow = 0;; ++grow) {
        fatalIf(grow > 256, "defect map leaves no room for ", nq,
                " qubits");
        pw = dw + 1;
        ph = dh;
        defect_map = fabric::DefectMap::materialize(opts.defects, pw,
                                                    ph);
        int live = 0;
        for (int y = 0; y < dh; ++y)
            for (int x = 0; x < dw; ++x)
                live += !defect_map.deadTile(x, y);
        if (live < nq) {
            ++dh;
            continue;
        }

        // Factory patches: a dead nominal position slides to the
        // nearest live row in the column (below first on ties); dead
        // rows beyond that drop the factory.
        factories.clear();
        int nfac = std::min(want_fac, ph);
        std::vector<uint8_t> used(static_cast<size_t>(ph), 0);
        for (int i = 0; i < nfac; ++i) {
            int y = nfac == 1 ? ph / 2 : i * (ph - 1) / (nfac - 1);
            int pick = -1;
            for (int d = 0; d < ph && pick < 0; ++d)
                for (int s : {y + d, y - d}) {
                    if (s < 0 || s >= ph
                        || used[static_cast<size_t>(s)]
                        || defect_map.deadTile(pw - 1, s))
                        continue;
                    pick = s;
                    break;
                }
            if (pick >= 0) {
                used[static_cast<size_t>(pick)] = 1;
                factories.push_back(Coord{pw - 1, pick});
            }
        }
        if (factories.empty()) {
            ++dh;
            continue;
        }
        break;
    }
    lane_spacing = lanes ? opts.lane_spacing : 0;
    buildCoordinateMaps(lane_spacing);

    // Project the patch-level damage onto the mesh: a dead patch
    // loses its center router, a broken coupler every link of the
    // straight segment between the two centers.
    if (!defect_map.empty()) {
        bad_node_.assign(static_cast<size_t>(mw * mh), 0);
        for (const Coord &t : defect_map.deadTiles())
            bad_node_[static_cast<size_t>(
                linearIndex(center(t), mw))] = 1;
        for (const auto &[a, b] : defectiveMeshLinks()) {
            auto la = static_cast<uint64_t>(
                static_cast<uint32_t>(linearIndex(a, mw)));
            auto lb = static_cast<uint64_t>(
                static_cast<uint32_t>(linearIndex(b, mw)));
            bad_link_.insert(std::min(la, lb) << 32
                             | std::max(la, lb));
        }
    }

    partition::CellMask mask = defect_map.deadMask(dw, dh);
    qubit_patch.resize(static_cast<size_t>(nq));
    partition::GridLayout layout;
    if (opts.optimized_layout) {
        partition::Graph pg = circuit::toPartitionGraph(graph);
        layout = partition::layoutOnGrid(pg, dw, dh, opts.seed, mask);
        // The corridor objectives refine the bisection seed against
        // the around-patch corridor metric — lane-aware when lanes
        // are on, so the refinement prices the machine actually
        // built (ROADMAP: surgery-aware layout); the Manhattan
        // objective keeps the seed untouched.
        if (opts.layout_objective
            != partition::LayoutObjective::BraidManhattan)
            partition::refineForCorridors(pg, layout, lane_spacing,
                                          8, mask);
    } else {
        layout = partition::naiveLayout(nq, dw, dh, mask);
    }
    for (int q = 0; q < nq; ++q)
        qubit_patch[static_cast<size_t>(q)] =
            layout.position[static_cast<size_t>(q)];
}

std::vector<std::pair<Coord, Coord>>
PatchArch::defectiveMeshLinks() const
{
    std::vector<std::pair<Coord, Coord>> out;
    for (const auto &[a, b] : defect_map.disabledLinks()) {
        Coord at = center(a);
        Coord to = center(b);
        int dx = to.x > at.x ? 1 : to.x < at.x ? -1 : 0;
        int dy = to.y > at.y ? 1 : to.y < at.y ? -1 : 0;
        while (at != to) {
            Coord next{at.x + dx, at.y + dy};
            out.emplace_back(at, next);
            at = next;
        }
    }
    return out;
}

bool
PatchArch::routeDefectFree(const network::Path &path) const
{
    if (bad_node_.empty())
        return true;
    int prev = -1;
    for (const Coord &c : path.nodes) {
        int ni = linearIndex(c, mw);
        if (bad_node_[static_cast<size_t>(ni)])
            return false;
        if (prev >= 0 && !bad_link_.empty()) {
            auto la = static_cast<uint64_t>(
                static_cast<uint32_t>(std::min(prev, ni)));
            auto lb = static_cast<uint64_t>(
                static_cast<uint32_t>(std::max(prev, ni)));
            if (bad_link_.count(la << 32 | lb))
                return false;
        }
        prev = ni;
    }
    return true;
}

double
PatchArch::defectExposure(int32_t qa, int32_t qb) const
{
    if (defect_map.empty())
        return 0.0;
    return defect_map.routeExposure(patchOf(qa), patchOf(qb));
}

Coord
PatchArch::patchOf(int32_t q) const
{
    panicIf(q < 0 || q >= nq, "qubit ", q, " out of range");
    return qubit_patch[static_cast<size_t>(q)];
}

Coord
PatchArch::terminal(int32_t q) const
{
    return center(patchOf(q));
}

Coord
PatchArch::factoryTerminal(int f) const
{
    panicIf(f < 0 || f >= numFactories(), "factory ", f,
            " out of range");
    return center(factories[static_cast<size_t>(f)]);
}

Coord
PatchArch::factoryPatch(int f) const
{
    panicIf(f < 0 || f >= numFactories(), "factory ", f,
            " out of range");
    return factories[static_cast<size_t>(f)];
}

std::vector<int>
PatchArch::factoriesByDistance(int32_t q) const
{
    Coord patch = patchOf(q);
    std::vector<int> order(factories.size());
    for (size_t i = 0; i < factories.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return manhattan(patch, factories[static_cast<size_t>(a)])
             < manhattan(patch, factories[static_cast<size_t>(b)]);
    });
    return order;
}

network::Mesh
PatchArch::makeMesh() const
{
    network::Mesh mesh(meshWidth(), meshHeight());
    if (defect_map.empty())
        return mesh;
    for (const Coord &t : defect_map.deadTiles())
        mesh.disableNode(center(t));
    for (const auto &[a, b] : defectiveMeshLinks())
        mesh.disableLink(a, b);
    return mesh;
}

bool
PatchArch::isLaneRow(int y) const
{
    return indexOf(lane_rows_y, y) >= 0;
}

bool
PatchArch::isLaneCol(int x) const
{
    return indexOf(lane_cols_x, x) >= 0;
}

double
PatchArch::laneAreaFactor() const
{
    return static_cast<double>(mw) * static_cast<double>(mh)
        / (static_cast<double>(2 * pw + 1)
           * static_cast<double>(2 * ph + 1));
}

std::vector<Coord>
PatchArch::reservedTerminals() const
{
    std::vector<Coord> out;
    out.reserve(static_cast<size_t>(nq) + factories.size());
    for (int q = 0; q < nq; ++q)
        out.push_back(terminal(q));
    for (int f = 0; f < numFactories(); ++f)
        out.push_back(factoryTerminal(f));
    return out;
}

bool
PatchArch::laneRoute(network::Path::Nodes &nodes, const Coord &src,
                     const Coord &dst, bool yx_first) const
{
    if (!yx_first) {
        // Ride the first lane row the vertical span crosses: exit
        // into the source ring, side-step one corridor column, drop
        // to the lane, run the long horizontal leg on it, and come
        // back up beside the destination.
        int lane = laneBetween(lane_rows_y, src.y, dst.y);
        if (lane < 0)
            return false;
        int sy = src.y + stepToward(src.y, dst.y);
        int cx0 = src.x + stepToward(src.x, dst.x);
        int cx1 = dst.x + stepToward(dst.x, src.x);
        int dy = dst.y + stepToward(dst.y, src.y);
        walkTo(nodes, Coord{src.x, sy});
        walkTo(nodes, Coord{cx0, sy});
        walkTo(nodes, Coord{cx0, lane});
        walkTo(nodes, Coord{cx1, lane});
        walkTo(nodes, Coord{cx1, dy});
        walkTo(nodes, Coord{dst.x, dy});
        return true;
    }
    // Transposed geometry: the long vertical leg rides a lane column.
    int lane = laneBetween(lane_cols_x, src.x, dst.x);
    if (lane < 0)
        return false;
    int sx = src.x + stepToward(src.x, dst.x);
    int ry0 = src.y + stepToward(src.y, dst.y);
    int ry1 = dst.y + stepToward(dst.y, src.y);
    int dx1 = dst.x + stepToward(dst.x, src.x);
    walkTo(nodes, Coord{sx, src.y});
    walkTo(nodes, Coord{sx, ry0});
    walkTo(nodes, Coord{lane, ry0});
    walkTo(nodes, Coord{lane, ry1});
    walkTo(nodes, Coord{dx1, ry1});
    walkTo(nodes, Coord{dx1, dst.y});
    return true;
}

network::Path
PatchArch::corridorRoute(const Coord &src, const Coord &dst,
                         bool yx_first) const
{
    network::Path path;
    append(path.nodes, src);
    if (src == dst)
        return path;

    int pax = indexOf(col_x, src.x), pay = indexOf(row_y, src.y);
    int pbx = indexOf(col_x, dst.x), pby = indexOf(row_y, dst.y);
    panicIf(pax < 0 || pay < 0 || pbx < 0 || pby < 0,
            "corridor endpoints must be patch centers");

    // Adjacent patches merge straight through the shared boundary
    // corridor between their centers (one router, or three where a
    // lane band separates them).
    if (std::abs(pax - pbx) + std::abs(pay - pby) == 1) {
        walkTo(path.nodes, dst);
        return path;
    }

    int tie = yx_first ? -1 : +1;

    // Collinear pairs route around the patches between them along a
    // side corridor; the primary takes the +1 side and the transposed
    // fallback the -1 side, so contended same-row/column merges keep
    // genuine route diversity.  (The old tie-break sent both
    // geometries to the same corridor.)  Patch centers sit at mesh
    // coordinates 1..size-2, so both side corridors always exist —
    // a clamp here would silently collapse the two geometries back
    // onto one corridor, so fail loudly instead.
    if (pay == pby) {
        auto side = [&](int t) {
            network::Path p;
            append(p.nodes, src);
            int ry = src.y + t;
            panicIf(ry < 0 || ry >= mh,
                    "collinear side corridor row off the mesh");
            walkTo(p.nodes, Coord{src.x, ry});
            walkTo(p.nodes, Coord{dst.x, ry});
            walkTo(p.nodes, dst);
            return p;
        };
        // A damaged preferred side flips to the other corridor when
        // that one is clear (deeper damage escalates to BFS).
        network::Path p = side(tie);
        if (!routeDefectFree(p)) {
            network::Path alt = side(-tie);
            if (routeDefectFree(alt))
                return alt;
        }
        return p;
    }
    if (pax == pbx) {
        auto side = [&](int t) {
            network::Path p;
            append(p.nodes, src);
            int cx = src.x + t;
            panicIf(cx < 0 || cx >= mw,
                    "collinear side corridor column off the mesh");
            walkTo(p.nodes, Coord{cx, src.y});
            walkTo(p.nodes, Coord{cx, dst.y});
            walkTo(p.nodes, dst);
            return p;
        };
        network::Path p = side(tie);
        if (!routeDefectFree(p)) {
            network::Path alt = side(-tie);
            if (routeDefectFree(alt))
                return alt;
        }
        return p;
    }

    // Long hauls whose span crosses a dedicated ancilla lane ride it
    // (same hop count as the classic geometry when the lane lies
    // between) instead of fighting over patch-adjacent rings.  A
    // damaged lane band is skipped: the ring geometry below takes
    // over.
    {
        network::Path lane_path;
        append(lane_path.nodes, src);
        if (laneRoute(lane_path.nodes, src, dst, yx_first)) {
            walkTo(lane_path.nodes, dst);
            if (routeDefectFree(lane_path))
                return lane_path;
        }
    }

    // General case: exit into the corridor ring next to the source
    // patch, travel along a corridor row and column — never through
    // another patch center — and enter the destination from its
    // adjacent corridor column/row.
    if (!yx_first) {
        int ry = src.y + stepToward(src.y, dst.y);
        int cx = dst.x + stepToward(dst.x, src.x);
        walkTo(path.nodes, Coord{src.x, ry});
        walkTo(path.nodes, Coord{cx, ry});
        walkTo(path.nodes, Coord{cx, dst.y});
    } else {
        int cx = src.x + stepToward(src.x, dst.x);
        int ry = dst.y + stepToward(dst.y, src.y);
        walkTo(path.nodes, Coord{cx, src.y});
        walkTo(path.nodes, Coord{cx, ry});
        walkTo(path.nodes, Coord{dst.x, ry});
    }
    walkTo(path.nodes, dst);
    return path;
}

int
PatchArch::chainTiles(int router_hops)
{
    return (router_hops + 1) / 2;
}

double
PatchArch::layoutCost(const circuit::InteractionGraph &graph) const
{
    double sum = 0;
    for (const auto &[pair, w] : graph.edges)
        sum += static_cast<double>(w)
             * manhattan(patchOf(pair.first), patchOf(pair.second));
    return sum;
}

double
PatchArch::corridorCost(const circuit::InteractionGraph &graph) const
{
    double sum = 0;
    for (const auto &[pair, w] : graph.edges)
        sum += static_cast<double>(w)
             * partition::corridorTiles(patchOf(pair.first),
                                        patchOf(pair.second),
                                        lane_spacing);
    return sum;
}

PatchPrepared::PatchPrepared(const circuit::Circuit &circ,
                             const PatchArchOptions &arch_opts)
    : dag(circ), graph(circuit::interactionGraph(circ)),
      arch(graph, arch_opts), crit(circuit::criticality(dag))
{
}

} // namespace qsurf::surgery
