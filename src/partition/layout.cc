#include "partition/layout.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace qsurf::partition {

namespace {

/** Inclusive cell rectangle. */
struct Rect
{
    int x0, y0, x1, y1;

    int width() const { return x1 - x0 + 1; }
    int height() const { return y1 - y0 + 1; }
    int cells() const { return width() * height(); }
};

/**
 * Recursive bisection placement state.  The graph is flattened once;
 * every split's induced subgraph and every bisection reuse buffers
 * held here, so after the first (largest) split they rarely
 * allocate.
 */
class Placer
{
  public:
    Placer(const Graph &g, GridLayout &layout, Rng &rng)
        : layout(layout), rng(rng)
    {
        graph.assign(g);
        auto n = static_cast<size_t>(g.size());
        order.resize(n);
        std::iota(order.begin(), order.end(), 0);
        local.assign(n, -1);
    }

    /** Place the vertices order[lo, hi) on @p rect. */
    void
    place(int lo, int hi, const Rect &rect)
    {
        panicIf(hi - lo > rect.cells(), "placer overflow: ", hi - lo,
                " vertices in ", rect.cells(), " cells");
        if (lo == hi)
            return;
        if (rect.cells() == 1) {
            int v = order[static_cast<size_t>(lo)];
            Coord c{rect.x0, rect.y0};
            layout.position[static_cast<size_t>(v)] = c;
            layout.vertex_at[static_cast<size_t>(
                linearIndex(c, layout.width))] = v;
            return;
        }

        // Split along the longer axis.
        Rect a = rect, b = rect;
        if (rect.width() >= rect.height()) {
            int mid = rect.x0 + (rect.width() - 1) / 2;
            a.x1 = mid;
            b.x0 = mid + 1;
        } else {
            int mid = rect.y0 + (rect.height() - 1) / 2;
            a.y1 = mid;
            b.y0 = mid + 1;
        }

        int mid = lo + split(lo, hi, a.cells(), b.cells());
        place(lo, mid, a);
        place(mid, hi, b);
    }

  private:
    /**
     * Split order[lo, hi) into groups fitting capacities @p cap_a and
     * @p cap_b by bisecting the induced subgraph, and reorder it into
     * the first group then the second, each in its old order.
     *
     * @return the size of the first group.
     */
    int
    split(int lo, int hi, int cap_a, int cap_b)
    {
        int n = hi - lo;
        auto un = static_cast<size_t>(n);
        int *vertices = &order[static_cast<size_t>(lo)];
        buildSubgraph(vertices, n);

        BisectOptions opts;
        opts.target_fraction = std::clamp(
            static_cast<double>(cap_a) / (cap_a + cap_b), 0.05, 0.95);
        const std::vector<int> &cut = bisector.run(sub, rng, opts);
        side.assign(cut.begin(), cut.end());

        // Enforce hard capacities: spill overflow to the other side
        // (the bisection balance envelope is soft).  Spill the vertex
        // with the smallest attachment to its own side — not an
        // arbitrary tail vertex — so the edges forced across the cut
        // are the cheapest ones available.
        const int *off = sub.offset.data();
        const int *to = sub.to.data();
        const int64_t *wt = sub.weight.data();
        int *sd = side.data();
        auto spillWeakest = [&](int overfull) {
            int best = -1;
            int64_t best_att = 0;
            for (int i = 0; i < n; ++i) {
                if (sd[i] != overfull)
                    continue;
                int64_t att = 0;
                for (int e = off[i]; e < off[i + 1]; ++e)
                    if (sd[to[e]] == overfull)
                        att += wt[e];
                if (best < 0 || att < best_att) {
                    best = i;
                    best_att = att;
                }
            }
            sd[best] = 1 - overfull;
        };
        int na = 0;
        for (int i = 0; i < n; ++i)
            na += sd[i] == 0;
        for (; na > cap_a; --na)
            spillWeakest(0);
        for (; n - na > cap_b; ++na)
            spillWeakest(1);

        scratch.resize(un);
        int ia = 0, ib = na;
        for (int i = 0; i < n; ++i)
            scratch[static_cast<size_t>(sd[i] == 0 ? ia++ : ib++)] =
                vertices[i];
        std::copy(scratch.begin(), scratch.end(), vertices);
        return na;
    }

    /**
     * Build the subgraph induced by the ascending @p vertices into
     * sub, with unit vertex weights and the neighbour order that
     * Graph::addEdge(i, j) for each edge, i ascending, would give:
     * lower-indexed partners ascending, then higher ones in the whole
     * graph's order.
     */
    void
    buildSubgraph(const int *vertices, int n)
    {
        auto un = static_cast<size_t>(n);
        const int *off = graph.offset.data();
        const int *to = graph.to.data();
        for (int i = 0; i < n; ++i)
            local[static_cast<size_t>(vertices[i])] = i;
        sub.vweight.assign(un, 1);
        sub.offset.assign(un + 1, 0);
        for (int i = 0; i < n; ++i)
            for (int a = off[vertices[i]]; a < off[vertices[i] + 1]; ++a) {
                int j = local[static_cast<size_t>(to[a])];
                if (j > i) {
                    ++sub.offset[static_cast<size_t>(i) + 1];
                    ++sub.offset[static_cast<size_t>(j) + 1];
                }
            }
        std::partial_sum(sub.offset.begin(), sub.offset.end(),
                         sub.offset.begin());
        sub.to.resize(static_cast<size_t>(sub.offset[un]));
        sub.weight.resize(sub.to.size());
        scratch.assign(sub.offset.begin(), sub.offset.end() - 1);
        int *fill = scratch.data();
        int *sub_to = sub.to.data();
        int64_t *sub_wt = sub.weight.data();
        const int64_t *wt = graph.weight.data();
        for (int i = 0; i < n; ++i)
            for (int a = off[vertices[i]]; a < off[vertices[i] + 1]; ++a) {
                int j = local[static_cast<size_t>(to[a])];
                if (j <= i)
                    continue;
                sub_to[fill[i]] = j;
                sub_wt[fill[i]++] = wt[a];
                sub_to[fill[j]] = i;
                sub_wt[fill[j]++] = wt[a];
            }
        for (int i = 0; i < n; ++i)
            local[static_cast<size_t>(vertices[i])] = -1;
    }

    GridLayout &layout;
    Rng &rng;
    FlatGraph graph;
    /** The vertices, grouped so each region's are contiguous. */
    std::vector<int> order;
    /** Each vertex's index in the current split (-1 outside it). */
    std::vector<int> local;
    FlatGraph sub;
    Bisector bisector;
    /** The split's sides, and scratch for building its subgraph
     *  and reordering its vertices. */
    std::vector<int> side, scratch;
};

GridLayout
emptyLayout(int num_vertices, int width, int height)
{
    fatalIf(width < 1 || height < 1, "grid must be at least 1x1, got ",
            width, "x", height);
    fatalIf(num_vertices > width * height, "cannot place ",
            num_vertices, " vertices on a ", width, "x", height,
            " grid");
    GridLayout out;
    out.width = width;
    out.height = height;
    out.position.assign(static_cast<size_t>(num_vertices), Coord{});
    out.vertex_at.assign(static_cast<size_t>(width * height), -1);
    return out;
}

} // namespace

GridLayout
naiveLayout(int num_vertices, int width, int height)
{
    GridLayout out = emptyLayout(num_vertices, width, height);
    for (int v = 0; v < num_vertices; ++v) {
        Coord c = fromLinearIndex(v, width);
        out.position[static_cast<size_t>(v)] = c;
        out.vertex_at[static_cast<size_t>(v)] = v;
    }
    return out;
}

GridLayout
naiveLayout(int num_vertices, int width, int height,
            const CellMask &dead)
{
    if (dead.empty())
        return naiveLayout(num_vertices, width, height);
    fatalIf(dead.size() != static_cast<size_t>(width * height),
            "cell mask covers ", dead.size(), " cells of a ", width,
            "x", height, " grid");
    GridLayout out = emptyLayout(num_vertices, width, height);
    int v = 0;
    for (int i = 0; i < width * height && v < num_vertices; ++i) {
        if (dead[static_cast<size_t>(i)])
            continue;
        out.position[static_cast<size_t>(v)] =
            fromLinearIndex(i, width);
        out.vertex_at[static_cast<size_t>(i)] = v;
        ++v;
    }
    fatalIf(v < num_vertices, "cannot place ", num_vertices,
            " vertices on a ", width, "x", height, " grid with only ",
            v, " usable cells");
    return out;
}

GridLayout
layoutOnGrid(const Graph &g, int width, int height, uint64_t seed)
{
    GridLayout out = emptyLayout(g.size(), width, height);
    Rng rng(seed);
    Placer(g, out, rng).place(0, g.size(),
                              Rect{0, 0, width - 1, height - 1});
    return out;
}

GridLayout
layoutOnGrid(const Graph &g, int width, int height, uint64_t seed,
             const CellMask &dead)
{
    // Seed with the perfect-grid bisection (bit-identical partitions
    // regardless of damage), then repair: interaction structure
    // drives the placement, damage only perturbs it locally.
    GridLayout out = layoutOnGrid(g, width, height, seed);
    evictDeadCells(out, dead);
    return out;
}

void
evictDeadCells(GridLayout &layout, const CellMask &dead)
{
    if (dead.empty())
        return;
    fatalIf(dead.size() != layout.vertex_at.size(),
            "cell mask covers ", dead.size(), " cells of a ",
            layout.width, "x", layout.height, " grid");
    int cells = layout.width * layout.height;
    for (int i = 0; i < cells; ++i) {
        if (!dead[static_cast<size_t>(i)])
            continue;
        int v = layout.vertex_at[static_cast<size_t>(i)];
        if (v < 0)
            continue;
        Coord from = fromLinearIndex(i, layout.width);
        int best = -1;
        int best_dist = 0;
        for (int j = 0; j < cells; ++j) {
            if (dead[static_cast<size_t>(j)]
                || layout.vertex_at[static_cast<size_t>(j)] >= 0)
                continue;
            int dist = manhattan(from, fromLinearIndex(j,
                                                       layout.width));
            if (best < 0 || dist < best_dist) {
                best = j;
                best_dist = dist;
            }
        }
        fatalIf(best < 0, "no usable cell left to relocate vertex ",
                v, " off dead cell ", from);
        layout.vertex_at[static_cast<size_t>(i)] = -1;
        layout.vertex_at[static_cast<size_t>(best)] = v;
        layout.position[static_cast<size_t>(v)] =
            fromLinearIndex(best, layout.width);
    }
}

double
weightedManhattan(const Graph &g, const GridLayout &layout)
{
    double sum = 0;
    for (const Edge &e : g.edges())
        sum += static_cast<double>(e.w)
             * manhattan(layout.position[static_cast<size_t>(e.u)],
                         layout.position[static_cast<size_t>(e.v)]);
    return sum;
}

const char *
layoutObjectiveName(LayoutObjective objective)
{
    switch (objective) {
      case LayoutObjective::BraidManhattan:
        return "braid-manhattan";
      case LayoutObjective::Corridor:
        return "corridor";
      case LayoutObjective::CorridorLanes:
        return "corridor+lanes";
    }
    panic("bad LayoutObjective");
}

LayoutObjective
layoutObjective(int v)
{
    fatalIf(v < 0 || v >= num_layout_objectives,
            "layout objective must be in [0, ",
            num_layout_objectives, "), got ", v);
    return static_cast<LayoutObjective>(v);
}

namespace {

/** Dedicated-lane bands crossed between patch indices @p a and
 *  @p b: one per multiple of @p spacing strictly inside the span
 *  (boundary t sits between patches t-1 and t). */
int
lanesCrossed(int a, int b, int spacing)
{
    if (spacing <= 0)
        return 0;
    return std::max(a, b) / spacing - std::min(a, b) / spacing;
}

} // namespace

int
corridorTiles(const Coord &a, const Coord &b, int lane_spacing)
{
    int m = manhattan(a, b);
    if (m == 0)
        return 0;
    // A corridor between collinear non-adjacent patches cannot run
    // straight through the patches between them: it detours one
    // corridor row/column to the side, one extra tile end to end.
    // Every lane band the span crosses inserts two mesh lines, one
    // extra tile each — routes ride lanes at zero additional hops,
    // so this prices the actual route geometry exactly.
    bool collinear = (a.x == b.x || a.y == b.y) && m >= 2;
    return m + (collinear ? 1 : 0)
        + lanesCrossed(a.x, b.x, lane_spacing)
        + lanesCrossed(a.y, b.y, lane_spacing);
}

double
weightedCorridorLength(const Graph &g, const GridLayout &layout,
                       int lane_spacing)
{
    double sum = 0;
    for (const Edge &e : g.edges())
        sum += static_cast<double>(e.w)
             * corridorTiles(layout.position[static_cast<size_t>(e.u)],
                             layout.position[static_cast<size_t>(e.v)],
                             lane_spacing);
    return sum;
}

namespace {

/**
 * Lower bounds that let refineForCorridors skip, exactly, the swaps
 * that cannot strictly lower the corridor cost.
 *
 * corridorTiles >= manhattan, so the weighted Manhattan cost of
 * vertex x at cell c, F_x(c) = gx_x[c.x] + hy_x[c.y] (separable per
 * axis), lower-bounds its corridor cost there.  Swapping u (at ci)
 * with v (at cj) therefore changes the objective by at least
 * [F_u(cj) - C(u)] + [F_v(ci) - C(v)], C being the current corridor
 * cost of a vertex's edges; an empty side adds 0, and the u-v edge
 * counts 0 in F.  slack(x) = C(x) - min gx_x - min hy_x >= 0 is the
 * most x can gain anywhere, and row_slack[y] the largest slack in
 * row y, so no swap of u into row y improves once
 * hy_u[y] + min gx_u - C(u) >= row_slack[y].
 */
class SwapBounds
{
  public:
    SwapBounds(const Graph &g, const GridLayout &layout,
               int lane_spacing)
        : g(g), layout(layout), lane_spacing(lane_spacing),
          w(static_cast<size_t>(layout.width)),
          h(static_cast<size_t>(layout.height)),
          gx(static_cast<size_t>(g.size()) * w),
          hy(static_cast<size_t>(g.size()) * h),
          cost(static_cast<size_t>(g.size())),
          min_gx(cost.size()), slack(cost.size()), row_slack(h)
    {
        for (int x = 0; x < g.size(); ++x)
            refreshVertex(x);
        for (int y = 0; y < layout.height; ++y)
            refreshRow(y);
    }

    /** @return a lower bound on the cost change of vertex @p x
     *  moving to cell @p to (0 for an empty cell, @p x < 0). */
    int64_t
    moveBound(int x, const Coord &to) const
    {
        if (x < 0)
            return 0;
        auto v = static_cast<size_t>(x);
        return gx[v * w + static_cast<size_t>(to.x)]
             + hy[v * h + static_cast<size_t>(to.y)] - cost[v];
    }

    /** @return whether no swap of cell content @p u (a vertex, or
     *  -1 for an empty cell) with a cell of row @p y can improve. */
    bool
    rowHopeless(int u, int y) const
    {
        int64_t floor = 0;
        if (u >= 0) {
            auto v = static_cast<size_t>(u);
            floor = hy[v * h + static_cast<size_t>(y)] + min_gx[v]
                  - cost[v];
        }
        return floor >= row_slack[static_cast<size_t>(y)];
    }

    /** Refresh after the contents of cells @p a and @p b swapped:
     *  the moved vertices, their neighbours and their rows. */
    void
    swapped(const Coord &a, const Coord &b)
    {
        touched.clear();
        for (const Coord &c : {a, b}) {
            int x = layout.at(c);
            if (x < 0)
                continue;
            touched.push_back(x);
            for (const auto &[n, wt] : g.neighbors(x))
                touched.push_back(n);
        }
        for (int x : touched)
            refreshVertex(x);
        refreshRow(a.y);
        refreshRow(b.y);
        for (int x : touched)
            refreshRow(layout.position[static_cast<size_t>(x)].y);
    }

  private:
    void
    refreshVertex(int x)
    {
        auto v = static_cast<size_t>(x);
        int64_t *gxv = &gx[v * w];
        int64_t *hyv = &hy[v * h];
        std::fill(gxv, gxv + w, 0);
        std::fill(hyv, hyv + h, 0);
        const Coord &at = layout.position[v];
        int64_t c = 0;
        for (const auto &[n, wt] : g.neighbors(x)) {
            const Coord &p = layout.position[static_cast<size_t>(n)];
            c += wt * corridorTiles(at, p, lane_spacing);
            for (size_t i = 0; i < w; ++i)
                gxv[i] += wt * std::abs(static_cast<int>(i) - p.x);
            for (size_t i = 0; i < h; ++i)
                hyv[i] += wt * std::abs(static_cast<int>(i) - p.y);
        }
        cost[v] = c;
        min_gx[v] = *std::min_element(gxv, gxv + w);
        slack[v] = c - min_gx[v] - *std::min_element(hyv, hyv + h);
    }

    void
    refreshRow(int y)
    {
        int64_t most = 0;
        const int *row = &layout.vertex_at[static_cast<size_t>(y) * w];
        for (size_t i = 0; i < w; ++i)
            if (row[i] >= 0)
                most = std::max(most,
                                slack[static_cast<size_t>(row[i])]);
        row_slack[static_cast<size_t>(y)] = most;
    }

    const Graph &g;
    const GridLayout &layout;
    int lane_spacing;
    size_t w, h;
    /** gx[x * w + c], hy[x * h + r]: x's weighted Manhattan cost
     *  split per axis, at column c and row r. */
    std::vector<int64_t> gx, hy;
    std::vector<int64_t> cost, min_gx, slack, row_slack;
    std::vector<int> touched;
};

} // namespace

double
refineForCorridors(const Graph &g, GridLayout &layout,
                   int lane_spacing, int max_passes)
{
    return refineForCorridors(g, layout, lane_spacing, max_passes,
                              CellMask{});
}

double
refineForCorridors(const Graph &g, GridLayout &layout,
                   int lane_spacing, int max_passes,
                   const CellMask &dead)
{
    fatalIf(layout.position.size()
                != static_cast<size_t>(g.size()),
            "layout/graph size mismatch: ", layout.position.size(),
            " positions for ", g.size(), " vertices");

    // Cost change of moving @p v from @p from to @p to, ignoring the
    // edge to @p exclude (whose length a swap leaves unchanged).
    auto moveDelta = [&](int v, const Coord &from, const Coord &to,
                         int exclude) {
        int64_t d = 0;
        for (const auto &[n, w] : g.neighbors(v)) {
            if (n == exclude)
                continue;
            const Coord &p = layout.position[static_cast<size_t>(n)];
            d += w * (corridorTiles(to, p, lane_spacing)
                      - corridorTiles(from, p, lane_spacing));
        }
        return d;
    };

    int cells = layout.width * layout.height;
    bool masked = !dead.empty();
    fatalIf(masked && dead.size() != layout.vertex_at.size(),
            "cell mask covers ", dead.size(), " cells of a ",
            layout.width, "x", layout.height, " grid");
    // Cells j > i in row-major order, skipping the rows and pairs
    // whose lower bound (0 for two empty cells) shows they cannot
    // improve.
    SwapBounds bounds(g, layout, lane_spacing);
    for (int pass = 0; pass < max_passes; ++pass) {
        bool improved = false;
        for (int i = 0; i < cells; ++i) {
            if (masked && dead[static_cast<size_t>(i)])
                continue;
            Coord ci = fromLinearIndex(i, layout.width);
            int u = layout.at(ci);
            for (int y = ci.y; y < layout.height; ++y) {
                if (bounds.rowHopeless(u, y))
                    continue;
                for (int x = y == ci.y ? ci.x + 1 : 0;
                     x < layout.width; ++x) {
                    Coord cj{x, y};
                    auto j = static_cast<size_t>(
                        linearIndex(cj, layout.width));
                    if (masked && dead[j])
                        continue;
                    int v = layout.vertex_at[j];
                    if (bounds.moveBound(u, cj)
                            + bounds.moveBound(v, ci)
                        >= 0)
                        continue;
                    int64_t delta = 0;
                    if (u >= 0)
                        delta += moveDelta(u, ci, cj, v);
                    if (v >= 0)
                        delta += moveDelta(v, cj, ci, u);
                    if (delta >= 0)
                        continue;
                    if (u >= 0)
                        layout.position[static_cast<size_t>(u)] = cj;
                    if (v >= 0)
                        layout.position[static_cast<size_t>(v)] = ci;
                    layout.vertex_at[static_cast<size_t>(i)] = v;
                    layout.vertex_at[j] = u;
                    bounds.swapped(ci, cj);
                    u = v;
                    improved = true;
                }
            }
        }
        if (!improved)
            break;
    }
    return weightedCorridorLength(g, layout, lane_spacing);
}

std::pair<int, int>
gridShape(int n)
{
    fatalIf(n < 1, "grid must hold at least one cell, got ", n);
    int w = static_cast<int>(std::ceil(std::sqrt(
        static_cast<double>(n))));
    int h = (n + w - 1) / w;
    return {w, h};
}

} // namespace qsurf::partition
