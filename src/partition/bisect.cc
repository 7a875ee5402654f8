#include "partition/bisect.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace qsurf::partition {

namespace {

int64_t
totalVertexWeight(const FlatGraph &g)
{
    return std::accumulate(g.vweight.begin(), g.vweight.end(),
                           int64_t{0});
}

BalanceConstraint
makeBalance(const FlatGraph &g, const BisectOptions &opts)
{
    auto total = static_cast<double>(totalVertexWeight(g));
    double target = total * opts.target_fraction;
    double eps = total * opts.imbalance;
    // Always allow at least one max-weight vertex of slack so a
    // feasible assignment exists even for lumpy vertex weights.
    int64_t max_vw = 1;
    for (int64_t w : g.vweight)
        max_vw = std::max(max_vw, w);
    auto slack = std::max<int64_t>(static_cast<int64_t>(eps), max_vw);

    BalanceConstraint b;
    b.min_side0 = std::max<int64_t>(
        0, static_cast<int64_t>(target) - slack);
    b.max_side0 = std::min<int64_t>(
        static_cast<int64_t>(total),
        static_cast<int64_t>(target) + slack);
    return b;
}

} // namespace

/**
 * Heavy-edge matching: visit vertices in random order, match each
 * unmatched vertex with its heaviest unmatched neighbour, and
 * contract matched pairs.
 */
void
Bisector::coarsen(const FlatGraph &g, Rng &rng, Level &out)
{
    int n = g.size();
    auto un = static_cast<size_t>(n);
    const int *off = g.offset.data();
    const int *to = g.to.data();
    const int64_t *wt = g.weight.data();

    order_.resize(un);
    std::iota(order_.begin(), order_.end(), 0);
    for (int i = n - 1; i > 0; --i)
        std::swap(order_[static_cast<size_t>(i)],
                  order_[rng.below(static_cast<uint64_t>(i + 1))]);

    match_.assign(un, -1);
    int *match = match_.data();
    for (int v : order_) {
        if (match[v] >= 0)
            continue;
        int best = -1;
        int64_t best_w = 0;
        for (int a = off[v]; a < off[v + 1]; ++a)
            if (match[to[a]] < 0 && wt[a] > best_w) {
                best_w = wt[a];
                best = to[a];
            }
        if (best >= 0) {
            match[v] = best;
            match[best] = v;
        } else {
            match[v] = v;
        }
    }

    std::vector<int> &f2c = out.fine_to_coarse;
    f2c.assign(un, -1);
    int next = 0;
    for (int v = 0; v < n; ++v) {
        if (f2c[static_cast<size_t>(v)] >= 0)
            continue;
        f2c[static_cast<size_t>(v)] = next;
        f2c[static_cast<size_t>(match[v])] = next;
        ++next;
    }
    auto unext = static_cast<size_t>(next);

    FlatGraph &cg = out.graph;
    cg.vweight.assign(unext, 0);
    for (int v = 0; v < n; ++v)
        cg.vweight[static_cast<size_t>(f2c[static_cast<size_t>(v)])] +=
            g.vweight[static_cast<size_t>(v)];

    // Each fine edge (u < v, u ascending) joins its coarse endpoints
    // as Graph::addEdge would: appended to both lists, or added onto
    // the pair's existing entries.  A list grows in a slot as long as
    // its members' degrees together, then the lists close ranks.
    cg.offset.assign(unext + 1, 0);
    for (int v = 0; v < n; ++v)
        cg.offset[static_cast<size_t>(f2c[static_cast<size_t>(v)]) + 1] +=
            off[v + 1] - off[v];
    std::partial_sum(cg.offset.begin(), cg.offset.end(),
                     cg.offset.begin());
    cg.to.resize(static_cast<size_t>(cg.offset[unext]));
    cg.weight.resize(cg.to.size());
    fill_.assign(cg.offset.begin(), cg.offset.end() - 1);
    int *cto = cg.to.data();
    int *fill = fill_.data();
    auto link = [&](int c, int d, int64_t w) {
        int *last = cto + fill[c];
        int *hit = std::find(cto + cg.offset[static_cast<size_t>(c)],
                             last, d);
        auto slot = static_cast<size_t>(hit - cto);
        if (hit != last) {
            cg.weight[slot] += w;
            return;
        }
        *hit = d;
        cg.weight[slot] = w;
        ++fill[c];
    };
    for (int u = 0; u < n; ++u) {
        int cu = f2c[static_cast<size_t>(u)];
        for (int a = off[u]; a < off[u + 1]; ++a) {
            int cv = f2c[static_cast<size_t>(to[a])];
            if (u < to[a] && cu != cv) {
                link(cu, cv, wt[a]);
                link(cv, cu, wt[a]);
            }
        }
    }
    int kept = 0;
    for (int c = 0; c < next; ++c) {
        int begin = cg.offset[static_cast<size_t>(c)];
        cg.offset[static_cast<size_t>(c)] = kept;
        for (int a = begin; a < fill[c]; ++a, ++kept) {
            cto[kept] = cto[a];
            cg.weight[static_cast<size_t>(kept)] =
                cg.weight[static_cast<size_t>(a)];
        }
    }
    cg.offset[unext] = kept;
    cg.to.resize(static_cast<size_t>(kept));
    cg.weight.resize(static_cast<size_t>(kept));
}

/**
 * Greedy BFS initial partition: grow side 0 from a random seed until
 * it holds the target weight; ties broken by connection strength.
 */
void
Bisector::initialPartition(const FlatGraph &g, Rng &rng,
                           int64_t target_w0, std::vector<int> &side)
{
    int n = g.size();
    auto un = static_cast<size_t>(n);
    side.assign(un, 1);
    if (n == 0)
        return;

    const int *off = g.offset.data();
    const int *to = g.to.data();
    visited_.assign(un, 0);
    queue_.resize(un);
    // The frontier is queue_[head, tail); a vertex enters it once.
    int head = 0, tail = 0;
    auto seed_from = [&](int v) {
        visited_[static_cast<size_t>(v)] = 1;
        queue_[static_cast<size_t>(tail++)] = v;
    };
    seed_from(static_cast<int>(rng.below(static_cast<uint64_t>(n))));

    int64_t w0 = 0;
    int fresh = 0; // every vertex below it is visited
    while (w0 < target_w0) {
        if (head == tail) {
            // Disconnected graph: seed a new unvisited component.
            while (fresh < n && visited_[static_cast<size_t>(fresh)])
                ++fresh;
            if (fresh == n)
                break;
            seed_from(fresh);
            continue;
        }
        int v = queue_[static_cast<size_t>(head++)];
        side[static_cast<size_t>(v)] = 0;
        w0 += g.vweight[static_cast<size_t>(v)];
        for (int a = off[v]; a < off[v + 1]; ++a)
            if (!visited_[static_cast<size_t>(to[a])])
                seed_from(to[a]);
    }
}

const std::vector<int> &
Bisector::run(const FlatGraph &g, Rng &rng, const BisectOptions &opts)
{
    fatalIf(opts.target_fraction <= 0 || opts.target_fraction >= 1,
            "target_fraction must be in (0,1), got ",
            opts.target_fraction);

    int n = g.size();
    if (n <= 1) {
        best_.assign(static_cast<size_t>(n), 0);
        return best_;
    }

    // Build the multilevel hierarchy: level d's graph is the input
    // coarsened d times.
    auto graphAt = [&](size_t d) -> const FlatGraph & {
        return d == 0 ? g : levels_[d - 1].graph;
    };
    size_t depth = 0;
    while (graphAt(depth).size() > opts.coarsen_threshold) {
        if (levels_.size() == depth)
            levels_.emplace_back();
        const FlatGraph &fine = graphAt(depth);
        coarsen(fine, rng, levels_[depth]);
        // Matching failed to shrink the graph (e.g. no edges): stop.
        if (levels_[depth].graph.size() >= fine.size())
            break;
        ++depth;
    }

    // Initial partition at the coarsest level, with restarts.
    const FlatGraph &coarsest = graphAt(depth);
    auto target_w0 = static_cast<int64_t>(
        static_cast<double>(totalVertexWeight(coarsest))
        * opts.target_fraction);
    BalanceConstraint cb = makeBalance(coarsest, opts);

    int64_t best_cut = -1;
    for (int r = 0; r < std::max(1, opts.restarts); ++r) {
        initialPartition(coarsest, rng, target_w0, side_);
        int64_t cut = fm_.refine(coarsest, side_, cb, opts.refine_passes);
        if (best_cut < 0 || cut < best_cut) {
            best_cut = cut;
            std::swap(side_, best_);
        }
    }

    // Uncoarsen, refining at every level.
    for (size_t d = depth; d > 0; --d) {
        const std::vector<int> &f2c = levels_[d - 1].fine_to_coarse;
        const FlatGraph &fine = graphAt(d - 1);
        side_.resize(f2c.size());
        for (size_t v = 0; v < f2c.size(); ++v)
            side_[v] = best_[static_cast<size_t>(f2c[v])];
        fm_.refine(fine, side_, makeBalance(fine, opts),
                   opts.refine_passes);
        std::swap(side_, best_);
    }
    return best_;
}

Bisection
bisect(const Graph &g, Rng &rng, const BisectOptions &opts)
{
    FlatGraph flat;
    flat.assign(g);
    Bisector bisector;
    Bisection out;
    out.side = bisector.run(flat, rng, opts);
    out.cut = cutWeight(flat, out.side);
    for (int v = 0; v < flat.size(); ++v)
        if (out.side[static_cast<size_t>(v)] == 0)
            out.side0_weight += flat.vweight[static_cast<size_t>(v)];
    return out;
}

} // namespace qsurf::partition
