#include "braid/tiled_arch.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace qsurf::braid {

Coord
TiledArch::tileCenter(const Coord &tile)
{
    return Coord{2 * tile.x + 1, 2 * tile.y + 1};
}

TiledArch::TiledArch(const circuit::InteractionGraph &graph,
                     const TiledArchOptions &opts)
{
    nq = graph.num_qubits;
    fatalIf(nq < 1, "tiled architecture needs at least one qubit");
    fatalIf(opts.tiles_per_factory < 1,
            "tiles_per_factory must be >= 1");

    // Near-square data region plus one factory column on the right.
    // On a damaged fabric the grid grows one data row at a time until
    // the live cells hold every qubit and at least one factory tile
    // survives; the map re-materializes per candidate grid, so the
    // machine is still a pure function of (graph, options).
    auto [dw, dh0] = partition::gridShape(nq);
    int dh = dh0;
    int want_fac = std::max(1, nq / opts.tiles_per_factory);
    for (int grow = 0;; ++grow) {
        fatalIf(grow > 256, "defect map leaves no room for ", nq,
                " qubits");
        tw = dw + 1;
        th = std::max(dh, std::min(want_fac, dh));
        defect_map = fabric::DefectMap::materialize(opts.defects, tw,
                                                    th);
        int live = 0;
        for (int y = 0; y < dh; ++y)
            for (int x = 0; x < dw; ++x)
                live += !defect_map.deadTile(x, y);
        if (live < nq) {
            ++dh;
            continue;
        }

        // Factory tiles: rightmost column, spread top to bottom.
        // A dead nominal position slides to the nearest live row in
        // the column (below first on ties); dead rows beyond that
        // drop the factory.
        factories.clear();
        int nfac = std::min(want_fac, th);
        std::vector<uint8_t> used(static_cast<size_t>(th), 0);
        for (int i = 0; i < nfac; ++i) {
            int y = nfac == 1 ? th / 2
                              : i * (th - 1) / (nfac - 1);
            int pick = -1;
            for (int d = 0; d < th && pick < 0; ++d)
                for (int s : {y + d, y - d}) {
                    if (s < 0 || s >= th
                        || used[static_cast<size_t>(s)]
                        || defect_map.deadTile(tw - 1, s))
                        continue;
                    pick = s;
                    break;
                }
            if (pick >= 0) {
                used[static_cast<size_t>(pick)] = 1;
                factories.push_back(Coord{tw - 1, pick});
            }
        }
        if (factories.empty()) {
            ++dh;
            continue;
        }
        break;
    }

    // Data-qubit placement on the live cells of the data region.
    partition::CellMask mask = defect_map.deadMask(dw, dh);
    qubit_tile.resize(static_cast<size_t>(nq));
    partition::GridLayout layout;
    if (opts.optimized_layout) {
        partition::Graph pg = circuit::toPartitionGraph(graph);
        layout = partition::layoutOnGrid(pg, dw, dh, opts.seed, mask);
    } else {
        layout = partition::naiveLayout(nq, dw, dh, mask);
    }
    for (int q = 0; q < nq; ++q)
        qubit_tile[static_cast<size_t>(q)] =
            layout.position[static_cast<size_t>(q)];
}

Coord
TiledArch::tileOf(int32_t q) const
{
    panicIf(q < 0 || q >= nq, "qubit ", q, " out of range");
    return qubit_tile[static_cast<size_t>(q)];
}

Coord
TiledArch::terminal(int32_t q) const
{
    return tileCenter(tileOf(q));
}

Coord
TiledArch::factoryTerminal(int f) const
{
    panicIf(f < 0 || f >= numFactories(), "factory ", f,
            " out of range");
    return tileCenter(factories[static_cast<size_t>(f)]);
}

std::vector<int>
TiledArch::factoriesByDistance(int32_t q) const
{
    Coord tile = tileOf(q);
    std::vector<int> order(factories.size());
    for (size_t i = 0; i < factories.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return manhattan(tile, factories[static_cast<size_t>(a)])
             < manhattan(tile, factories[static_cast<size_t>(b)]);
    });
    return order;
}

network::Mesh
TiledArch::makeMesh() const
{
    network::Mesh mesh(2 * tw + 1, 2 * th + 1);
    if (defect_map.empty())
        return mesh;
    // A dead tile loses its center router; a broken tile-to-tile
    // coupler loses the two mesh links of the straight segment
    // between the tile centers (through-traffic on the channel
    // between them still flows).
    for (const Coord &t : defect_map.deadTiles())
        mesh.disableNode(tileCenter(t));
    for (const auto &[a, b] : defect_map.disabledLinks()) {
        Coord ca = tileCenter(a);
        Coord cb = tileCenter(b);
        Coord mid{(ca.x + cb.x) / 2, (ca.y + cb.y) / 2};
        mesh.disableLink(ca, mid);
        mesh.disableLink(mid, cb);
    }
    return mesh;
}

double
TiledArch::layoutCost(const circuit::InteractionGraph &graph) const
{
    double sum = 0;
    for (const auto &[pair, w] : graph.edges)
        sum += static_cast<double>(w)
             * manhattan(tileOf(pair.first), tileOf(pair.second));
    return sum;
}

} // namespace qsurf::braid
