/**
 * @file
 * Lattice-surgery simulator tests: corridor-route construction, the
 * chain-claiming mesh semantics (contention serialization on a
 * shared corridor), agreement with the analytic Section 8.2 model's
 * latency trends (monotone in chain length and code distance), the
 * engine integration, and — the engine's central guarantee — sweep
 * results bit-identical at thread counts 1, 2 and 8.  The simulator
 * is the hybrid scheduler pinned to merge/split chains
 * (ArbiterKind::ForceSurgery), as the surgery-sim backend runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "circuit/circuit.h"
#include "circuit/interaction.h"
#include "common/logging.h"
#include "engine/sim.h"
#include "engine/sweep.h"
#include "estimate/lattice_surgery.h"
#include "hybrid/scheduler.h"
#include "surgery/backend.h"
#include "surgery/patch_arch.h"
#include "toolflow/toolflow.h"

namespace qsurf::surgery {
namespace {

/** A chain machine with one CNOT between the end qubits. */
circuit::Circuit
endToEndCnot(int num_qubits)
{
    circuit::Circuit c("dist-probe", num_qubits);
    c.addGate(circuit::GateKind::CNOT, 0,
              static_cast<int32_t>(num_qubits - 1));
    return c;
}

/** A 2x2 patch machine (4 qubits, naive layout). */
PatchArch
fourQubitArch()
{
    circuit::Circuit c("probe", 4);
    c.addGate(circuit::GateKind::CNOT, 0, 3);
    PatchArchOptions opts;
    opts.optimized_layout = false;
    return PatchArch(circuit::interactionGraph(c), opts);
}

using hybrid::HybridOptions;
using hybrid::HybridResult;
using hybrid::scheduleHybrid;

/** Hybrid options pinned to merge/split chains: surgery-sim's loop. */
HybridOptions
surgeryOptions(int d = 5)
{
    HybridOptions opts;
    opts.arbiter = hybrid::ArbiterKind::ForceSurgery;
    opts.code_distance = d;
    return opts;
}

/** surgeryOptions() on the naive layout. */
HybridOptions
naiveOptions(int d = 5)
{
    HybridOptions opts = surgeryOptions(d);
    opts.optimized_layout = false;
    return opts;
}

/** A patch machine over @p nq qubits with the given layout options. */
PatchArch
archWith(int nq, partition::LayoutObjective objective,
         int lane_spacing = 4, bool optimized = false)
{
    circuit::Circuit c("probe", nq);
    for (int32_t q = 0; q + 1 < nq; ++q)
        c.addGate(circuit::GateKind::CNOT, q, q + 1);
    c.addGate(circuit::GateKind::CNOT, 0,
              static_cast<int32_t>(nq - 1));
    PatchArchOptions opts;
    opts.optimized_layout = optimized;
    opts.layout_objective = objective;
    opts.lane_spacing = lane_spacing;
    return PatchArch(circuit::interactionGraph(c), opts);
}

/** Every patch cell of @p arch (data qubits and factories). */
std::vector<Coord>
allPatches(const PatchArch &arch)
{
    std::vector<Coord> out;
    for (int32_t q = 0; q < arch.numQubits(); ++q)
        out.push_back(arch.patchOf(q));
    for (int f = 0; f < arch.numFactories(); ++f)
        out.push_back(arch.factoryPatch(f));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/** Mesh router at the center of patch cell @p p. */
Coord
centerOf(const PatchArch &arch, const Coord &p)
{
    for (int32_t q = 0; q < arch.numQubits(); ++q)
        if (arch.patchOf(q) == p)
            return arch.terminal(q);
    for (int f = 0; f < arch.numFactories(); ++f)
        if (arch.factoryPatch(f) == p)
            return arch.factoryTerminal(f);
    ADD_FAILURE() << "no patch at " << p;
    return Coord{};
}

/** Interior (non-endpoint) nodes of @p path. */
std::set<Coord>
interiorOf(const network::Path &path)
{
    std::set<Coord> out;
    for (size_t i = 1; i + 1 < path.nodes.size(); ++i)
        out.insert(path.nodes[i]);
    return out;
}

TEST(PatchArch, CorridorRoutesAvoidOtherPatches)
{
    PatchArch arch = fourQubitArch();
    for (bool yx : {false, true}) {
        network::Path p =
            arch.corridorRoute(arch.terminal(0), arch.terminal(3), yx);
        EXPECT_EQ(p.source(), arch.terminal(0));
        EXPECT_EQ(p.dest(), arch.terminal(3));
        for (size_t i = 1; i + 1 < p.nodes.size(); ++i) {
            const Coord &c = p.nodes[i];
            EXPECT_TRUE(c.x % 2 == 0 || c.y % 2 == 0)
                << "interior corridor node " << c
                << " is a patch center";
        }
        // Consecutive nodes are mesh-adjacent.
        for (size_t i = 1; i < p.nodes.size(); ++i)
            EXPECT_EQ(manhattan(p.nodes[i - 1], p.nodes[i]), 1);
    }
}

TEST(PatchArch, AdjacentPatchesMergeDirectly)
{
    PatchArch arch = fourQubitArch();
    network::Path p =
        arch.corridorRoute(arch.terminal(0), arch.terminal(1), false);
    EXPECT_EQ(p.hops(), 2);
    EXPECT_EQ(PatchArch::chainTiles(p.hops()), 1);
}

TEST(PatchArch, ChainTilesRoundsUp)
{
    EXPECT_EQ(PatchArch::chainTiles(2), 1);
    EXPECT_EQ(PatchArch::chainTiles(3), 2);
    EXPECT_EQ(PatchArch::chainTiles(4), 2);
    EXPECT_EQ(PatchArch::chainTiles(7), 4);
}

TEST(PatchArch, CollinearPrimaryAndFallbackCorridorsAreDisjoint)
{
    // Regression: the old tie-break sent both the primary and the
    // "transposed" corridor of a collinear pair to the same side
    // (row y+1 / column x+1), so contended same-row/column merges
    // had zero route diversity.  The fallback must mirror to the
    // opposite side, making the two interiors disjoint.
    PatchArch arch =
        archWith(16, partition::LayoutObjective::BraidManhattan);
    std::vector<Coord> patches = allPatches(arch);
    int checked = 0;
    for (const Coord &a : patches) {
        for (const Coord &b : patches) {
            if (a == b || (a.x != b.x && a.y != b.y)
                || manhattan(a, b) < 2)
                continue;
            network::Path primary = arch.corridorRoute(
                centerOf(arch, a), centerOf(arch, b), false);
            network::Path fallback = arch.corridorRoute(
                centerOf(arch, a), centerOf(arch, b), true);
            std::set<Coord> pi = interiorOf(primary);
            for (const Coord &c : interiorOf(fallback))
                EXPECT_EQ(pi.count(c), 0u)
                    << "collinear pair " << a << " -> " << b
                    << " shares corridor node " << c;
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(PatchArch, TransposeFallbackRelievesCollinearCollision)
{
    // Two vertex-disjoint same-row merges whose primary corridors
    // overlap on the shared row: with the mirrored fallback the
    // second chain escapes to the opposite side; with the old
    // same-side fallback both geometries collided and the op could
    // only stall toward a BFS detour.
    PatchArch arch =
        archWith(16, partition::LayoutObjective::BraidManhattan);
    network::Mesh mesh = arch.makeMesh();
    engine::RouteClaimOptions copts;
    engine::ChainClaimer claimer(mesh, copts);
    for (const Coord &t : arch.reservedTerminals())
        claimer.reserveTerminal(t);

    // Row 1 of the 4x4 data grid: qubits 4..7.
    auto routes = [&](int32_t qa, int32_t qb, bool yx) {
        return arch.corridorRoute(arch.terminal(qa),
                                  arch.terminal(qb), yx);
    };
    auto first = claimer.tryClaim(routes(4, 6, false),
                                  routes(4, 6, true), /*owner=*/0,
                                  /*wait=*/0);
    ASSERT_TRUE(first.has_value());

    // The primaries overlap, so an un-escalated claim fails...
    EXPECT_FALSE(claimer
                     .tryClaim(routes(5, 7, false), routes(5, 7, true),
                               1, /*wait=*/0)
                     .has_value());
    // ... and the escalated claim succeeds via the mirrored
    // transposed corridor (not a BFS detour).
    auto second = claimer.tryClaim(routes(5, 7, false),
                                   routes(5, 7, true), 1,
                                   copts.adapt_timeout);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(claimer.transposeFallbacks(), 1u);
    EXPECT_EQ(claimer.bfsDetours(), 0u);
}

TEST(PatchArch, CorridorRouteInvariantsUnderAllOptions)
{
    using partition::LayoutObjective;
    struct Config
    {
        LayoutObjective objective;
        int lane_spacing;
        bool optimized;
    };
    const std::vector<Config> configs = {
        {LayoutObjective::BraidManhattan, 4, false},
        {LayoutObjective::Corridor, 4, true},
        {LayoutObjective::CorridorLanes, 2, false},
        {LayoutObjective::CorridorLanes, 2, true},
        {LayoutObjective::CorridorLanes, 3, true},
    };
    for (const Config &cfg : configs) {
        PatchArch arch = archWith(19, cfg.objective,
                                  cfg.lane_spacing, cfg.optimized);
        std::vector<Coord> reserved;
        for (const Coord &t : arch.reservedTerminals())
            reserved.push_back(t);
        std::set<Coord> terminals(reserved.begin(), reserved.end());
        std::vector<Coord> patches = allPatches(arch);
        // Patch-center coordinate lines: any (x, y) with both on a
        // center line is a patch-cell center (occupied or not) — the
        // lane-generalized form of "corridors live on even
        // coordinates".
        std::set<int> center_xs, center_ys;
        for (const Coord &t : reserved) {
            center_xs.insert(t.x);
            center_ys.insert(t.y);
        }
        for (const Coord &a : patches) {
            for (const Coord &b : patches) {
                if (a == b)
                    continue;
                Coord ca = centerOf(arch, a), cb = centerOf(arch, b);
                for (bool yx : {false, true}) {
                    network::Path p = arch.corridorRoute(ca, cb, yx);
                    EXPECT_EQ(p.source(), ca);
                    EXPECT_EQ(p.dest(), cb);
                    for (size_t i = 1; i < p.nodes.size(); ++i)
                        EXPECT_EQ(manhattan(p.nodes[i - 1],
                                            p.nodes[i]),
                                  1)
                            << a << " -> " << b;
                    for (const Coord &c : interiorOf(p)) {
                        EXPECT_GE(c.x, 0);
                        EXPECT_LT(c.x, arch.meshWidth());
                        EXPECT_GE(c.y, 0);
                        EXPECT_LT(c.y, arch.meshHeight());
                        EXPECT_EQ(terminals.count(c), 0u)
                            << "route " << a << " -> " << b
                            << " crosses reserved terminal " << c;
                        EXPECT_FALSE(center_xs.count(c.x)
                                     && center_ys.count(c.y))
                            << "route " << a << " -> " << b
                            << " leaves the corridor grid at " << c;
                    }
                    // Route length: the router-coordinate Manhattan
                    // distance, plus the 2-hop detour of collinear
                    // non-adjacent pairs.  Lane routes cost no extra
                    // hops (the lane lies across the span).
                    bool collinear = (a.x == b.x || a.y == b.y)
                        && manhattan(a, b) >= 2;
                    EXPECT_EQ(p.hops(),
                              manhattan(ca, cb) + (collinear ? 2 : 0))
                        << a << " -> " << b << " yx=" << yx;
                }
            }
        }
    }
}

TEST(PatchArch, CorridorMetricMatchesRouteGeometry)
{
    // partition::corridorTiles — the layout-objective edge cost —
    // must price exactly what PatchArch::corridorRoute builds, with
    // and without dedicated lanes (lane bands crossed cost one tile
    // each, and rides along a lane add no hops).
    struct Config
    {
        partition::LayoutObjective objective;
        int lane_spacing; ///< Metric spacing; 0 when lanes are off.
    };
    const std::vector<Config> configs = {
        {partition::LayoutObjective::Corridor, 0},
        {partition::LayoutObjective::CorridorLanes, 2},
        {partition::LayoutObjective::CorridorLanes, 3},
    };
    for (const Config &cfg : configs) {
        PatchArch arch = archWith(19, cfg.objective,
                                  std::max(1, cfg.lane_spacing),
                                  true);
        std::vector<Coord> patches = allPatches(arch);
        for (const Coord &a : patches) {
            for (const Coord &b : patches) {
                if (a == b)
                    continue;
                for (bool yx : {false, true}) {
                    network::Path p = arch.corridorRoute(
                        centerOf(arch, a), centerOf(arch, b), yx);
                    EXPECT_EQ(PatchArch::chainTiles(p.hops()),
                              partition::corridorTiles(
                                  a, b, cfg.lane_spacing))
                        << a << " -> " << b << " yx=" << yx
                        << " spacing=" << cfg.lane_spacing;
                }
            }
        }
    }
}

TEST(PatchArch, LanesAreSizedIntoTheMesh)
{
    // 19 qubits: 5x4 data grid + factory column -> 6x4 patches.
    // Spacing 2 puts lane columns at patch boundaries 2 and 4 and a
    // lane row at boundary 2, each two mesh lines wide (the lane and
    // its far-side corridor).
    PatchArch arch = archWith(
        19, partition::LayoutObjective::CorridorLanes, 2);
    EXPECT_EQ(arch.patchWidth(), 6);
    EXPECT_EQ(arch.patchHeight(), 4);
    EXPECT_EQ(arch.numLaneCols(), 2);
    EXPECT_EQ(arch.numLaneRows(), 1);
    EXPECT_EQ(arch.meshWidth(), 2 * 6 + 1 + 2 * 2);
    EXPECT_EQ(arch.meshHeight(), 2 * 4 + 1 + 2 * 1);
    EXPECT_GT(arch.laneAreaFactor(), 1.0);

    // Without lanes the same machine keeps the compact mesh.
    PatchArch flat =
        archWith(19, partition::LayoutObjective::Corridor, 2);
    EXPECT_EQ(flat.meshWidth(), 2 * 6 + 1);
    EXPECT_EQ(flat.meshHeight(), 2 * 4 + 1);
    EXPECT_EQ(flat.numLaneRows() + flat.numLaneCols(), 0);
    EXPECT_DOUBLE_EQ(flat.laneAreaFactor(), 1.0);

    // Lane rows/columns never coincide with patch centers.
    for (const Coord &p : allPatches(arch)) {
        Coord c = centerOf(arch, p);
        EXPECT_FALSE(arch.isLaneRow(c.y));
        EXPECT_FALSE(arch.isLaneCol(c.x));
    }
}

TEST(PatchArch, LongHaulsRideTheLanes)
{
    PatchArch arch = archWith(
        19, partition::LayoutObjective::CorridorLanes, 2);
    // Diagonal long haul crossing the lane row (patch rows 0 -> 3)
    // and a lane column (patch columns 0 -> 3).
    Coord a{0, 0}, b{3, 3};
    network::Path primary =
        arch.corridorRoute(centerOf(arch, a), centerOf(arch, b),
                           false);
    bool rides_lane_row = false;
    for (const Coord &c : interiorOf(primary))
        rides_lane_row |= arch.isLaneRow(c.y);
    EXPECT_TRUE(rides_lane_row)
        << "XY long haul should run its horizontal leg on a lane";

    network::Path fallback =
        arch.corridorRoute(centerOf(arch, a), centerOf(arch, b),
                           true);
    bool rides_lane_col = false;
    for (const Coord &c : interiorOf(fallback))
        rides_lane_col |= arch.isLaneCol(c.x);
    EXPECT_TRUE(rides_lane_col)
        << "YX long haul should run its vertical leg on a lane";

    // A local merge inside one lane band stays off the lanes.
    network::Path local = arch.corridorRoute(
        centerOf(arch, Coord{0, 0}), centerOf(arch, Coord{1, 1}),
        false);
    for (const Coord &c : interiorOf(local)) {
        EXPECT_FALSE(arch.isLaneRow(c.y)) << c;
        EXPECT_FALSE(arch.isLaneCol(c.x)) << c;
    }
}

TEST(Scheduler, LayoutObjectivesRunAndStayConsistent)
{
    // The corridor objectives must complete the same program and
    // report a corridor cost no worse than the Manhattan layout's
    // (the refinement never worsens its own objective).
    circuit::Circuit circ("mixed", 9);
    for (int32_t q = 0; q + 1 < 9; ++q)
        circ.addGate(circuit::GateKind::CNOT, q, q + 1);
    circ.addGate(circuit::GateKind::CNOT, 0, 8);
    circ.addGate(circuit::GateKind::T, 4);

    HybridOptions opts = surgeryOptions(3);
    opts.optimized_layout = true;
    opts.layout_objective = partition::LayoutObjective::BraidManhattan;
    HybridResult manhattan_r = scheduleHybrid(circ, opts);

    opts.layout_objective = partition::LayoutObjective::Corridor;
    HybridResult corridor_r = scheduleHybrid(circ, opts);
    EXPECT_LE(corridor_r.corridor_cost, manhattan_r.corridor_cost);
    EXPECT_EQ(corridor_r.surgery_ops, manhattan_r.surgery_ops);
    EXPECT_DOUBLE_EQ(corridor_r.lane_area_factor, 1.0);

    opts.layout_objective = partition::LayoutObjective::CorridorLanes;
    opts.lane_spacing = 2;
    HybridResult lanes_r = scheduleHybrid(circ, opts);
    EXPECT_GT(lanes_r.lane_area_factor, 1.0);
    EXPECT_GT(lanes_r.schedule_cycles, 0u);
}

TEST(ChainClaimer, ContendingChainsSerializeOnSharedCorridor)
{
    PatchArch arch = fourQubitArch();
    network::Mesh mesh = arch.makeMesh();
    engine::RouteClaimOptions copts;
    engine::ChainClaimer claimer(mesh, copts);
    for (const Coord &t : arch.reservedTerminals())
        claimer.reserveTerminal(t);

    // Diagonal chain 0 -> 3 claims the central corridor.
    auto first = claimer.tryClaim(
        arch.corridorRoute(arch.terminal(0), arch.terminal(3), false),
        arch.corridorRoute(arch.terminal(0), arch.terminal(3), true),
        /*owner=*/0, /*wait=*/0);
    ASSERT_TRUE(first.has_value());

    // The crossing chain 1 -> 2 shares that corridor: both preferred
    // geometries conflict, so placement must fail until the first
    // chain releases (the braid-style congestion of Section 8.2).
    network::Path primary =
        arch.corridorRoute(arch.terminal(1), arch.terminal(2), false);
    network::Path fallback =
        arch.corridorRoute(arch.terminal(1), arch.terminal(2), true);
    EXPECT_FALSE(
        claimer.tryClaim(primary, fallback, 1, copts.adapt_timeout)
            .has_value());

    claimer.release(*first, 0);
    auto second = claimer.tryClaim(primary, fallback, 1, 0);
    EXPECT_TRUE(second.has_value());
}

TEST(ChainClaimer, ReleaseRestoresPatchReservations)
{
    PatchArch arch = fourQubitArch();
    network::Mesh mesh = arch.makeMesh();
    engine::RouteClaimOptions copts;
    engine::ChainClaimer claimer(mesh, copts);
    for (const Coord &t : arch.reservedTerminals())
        claimer.reserveTerminal(t);

    Coord t0 = arch.terminal(0), t3 = arch.terminal(3);
    EXPECT_NE(mesh.nodeOwner(t0), network::Mesh::no_owner);
    auto chain = claimer.tryClaim(arch.corridorRoute(t0, t3, false),
                                  arch.corridorRoute(t0, t3, true),
                                  7, 0);
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(mesh.nodeOwner(t0), 7);
    claimer.release(*chain, 7);
    // The patch terminals are reserved again, the corridor is free.
    EXPECT_NE(mesh.nodeOwner(t0), network::Mesh::no_owner);
    EXPECT_NE(mesh.nodeOwner(t0), 7);
    for (size_t i = 1; i + 1 < chain->nodes.size(); ++i)
        EXPECT_EQ(mesh.nodeOwner(chain->nodes[i]),
                  network::Mesh::no_owner);
}

TEST(Scheduler, SharedCorridorCostsMoreThanDisjointMerges)
{
    // Naive 2x2 layout: (0,1) and (2,3) merge through disjoint
    // boundary routers and may run concurrently; (0,3) and (1,2)
    // cross in the central corridor and must serialize or detour.
    circuit::Circuit disjoint("disjoint", 4);
    disjoint.addGate(circuit::GateKind::CNOT, 0, 1);
    disjoint.addGate(circuit::GateKind::CNOT, 2, 3);

    circuit::Circuit crossing("crossing", 4);
    crossing.addGate(circuit::GateKind::CNOT, 0, 3);
    crossing.addGate(circuit::GateKind::CNOT, 1, 2);

    HybridResult r_disjoint =
        scheduleHybrid(disjoint, naiveOptions());
    HybridResult r_crossing =
        scheduleHybrid(crossing, naiveOptions());
    EXPECT_GT(r_crossing.schedule_cycles,
              r_disjoint.schedule_cycles);
    EXPECT_GT(r_crossing.placement_failures, 0u);
}

TEST(Scheduler, ChainCostMonotoneInDistanceLikeTheModel)
{
    // The analytic model (Section 8.2) charges rounds_per_hop * d
    // cycles per chain tile; the simulated chain must grow the same
    // way as d rises on a fixed machine.
    circuit::Circuit c = endToEndCnot(16);
    uint64_t prev = 0;
    for (int d : {3, 5, 9}) {
        HybridResult r = scheduleHybrid(c, naiveOptions(d));
        EXPECT_GT(r.schedule_cycles, prev)
            << "schedule must grow with code distance d=" << d;
        prev = r.schedule_cycles;
    }
}

TEST(Scheduler, ChainCostMonotoneInHopsLikeTheModel)
{
    // ... and with chain length (machine size) at fixed d, like the
    // model's rounds_per_hop * d * route_len term.
    uint64_t prev = 0;
    for (int n : {4, 16, 64}) {
        HybridResult r =
            scheduleHybrid(endToEndCnot(n), naiveOptions());
        EXPECT_GT(r.schedule_cycles, prev)
            << "schedule must grow with separation, n=" << n;
        prev = r.schedule_cycles;
    }
    // The analytic estimate shows the same trend over machine size.
    qec::Technology tech;
    tech.p_physical = 1e-8;
    estimate::ResourceModel model(apps::AppKind::SQ, tech);
    EXPECT_GT(estimate::estimateSurgery(model, 1e12).step_cycles,
              estimate::estimateSurgery(model, 1e4).step_cycles);
}

TEST(Scheduler, ScheduleIsBoundedBelowByCriticalPath)
{
    for (int n : {4, 9, 25}) {
        circuit::Circuit c = endToEndCnot(n);
        HybridOptions opts = naiveOptions();
        HybridResult r = scheduleHybrid(c, opts);
        EXPECT_GE(r.schedule_cycles, r.critical_path_cycles);
        EXPECT_GT(r.critical_path_cycles, 0u);
        EXPECT_EQ(r.surgery_ops, 1u);
        EXPECT_GE(r.max_chain_tiles, 1u);
    }
}

TEST(Backend, RegistryHasSurgeryBackends)
{
    engine::Registry &r = engine::Registry::global();
    EXPECT_TRUE(r.contains("planar/surgery-sim"));
    EXPECT_TRUE(r.contains("planar/surgery-model"));
    EXPECT_TRUE(r.contains(engine::backends::surgery_sim));
    EXPECT_TRUE(r.contains(engine::backends::surgery_model));
}

TEST(Backend, SimMatchesDirectSimulation)
{
    apps::GenOptions gen;
    gen.problem_size = 8;
    gen.max_iterations = 2;
    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, gen));

    engine::WorkItem item;
    item.circuit = &circ;
    item.config.code_distance = 5;
    item.config.seed = 7;

    HybridOptions opts = surgeryOptions(5);
    opts.seed = 7;
    HybridResult direct = scheduleHybrid(circ, opts);

    const engine::Backend &b =
        engine::Registry::global().get(engine::backends::surgery_sim);
    engine::Metrics m = b.run(item);
    EXPECT_EQ(m.schedule_cycles, direct.schedule_cycles);
    EXPECT_EQ(m.critical_path_cycles, direct.critical_path_cycles);
    EXPECT_DOUBLE_EQ(m.extra("mesh_utilization"),
                     direct.mesh_utilization);
    EXPECT_EQ(m.code, qec::CodeKind::Planar);
    EXPECT_DOUBLE_EQ(
        m.physical_qubits,
        surgeryPhysicalQubits(
            static_cast<double>(circ.numQubits()), 5));
}

TEST(Backend, ModelMatchesDirectEstimate)
{
    engine::WorkItem item;
    item.app = apps::AppKind::SQ;
    item.config.kq = 1e8;
    item.config.tech = qec::tech_points::futureOptimistic();

    estimate::ResourceModel model(apps::AppKind::SQ,
                                  item.config.tech);
    estimate::ResourceEstimate direct =
        estimate::estimateSurgery(model, 1e8);

    const engine::Backend &b = engine::Registry::global().get(
        engine::backends::surgery_model);
    EXPECT_FALSE(b.needsCircuit());
    engine::Metrics m = b.run(item);
    EXPECT_EQ(m.code_distance, direct.code_distance);
    EXPECT_DOUBLE_EQ(m.physical_qubits, direct.physical_qubits);
    EXPECT_DOUBLE_EQ(m.seconds, direct.seconds);
}

TEST(Backend, ToolflowDrivesSurgeryViaRegistry)
{
    apps::GenOptions gen;
    gen.problem_size = 8;
    gen.max_iterations = 2;
    circuit::Circuit circ =
        apps::generate(apps::AppKind::SQ, gen);

    toolflow::Config config;
    config.backends = {engine::backends::planar,
                       engine::backends::surgery_sim};
    toolflow::Report report = toolflow::run(circ, config);
    ASSERT_EQ(report.backend_metrics.size(), 2u);
    EXPECT_EQ(report.backend_metrics[1].backend,
              engine::backends::surgery_sim);
    EXPECT_GT(report.backend_metrics[1].schedule_cycles, 0u);
    // Surgery cannot beat the planar machine it shares a footprint
    // with: same patches, but chains instead of prefetched EPRs.
    EXPECT_GE(report.backend_metrics[1].schedule_cycles,
              report.backend_metrics[0].schedule_cycles);
}

bool
identical(const engine::Metrics &a, const engine::Metrics &b)
{
    // Exact comparison on purpose: determinism means bit-identical
    // doubles, not approximately-equal ones.
    return a.backend == b.backend && a.code == b.code
        && a.code_distance == b.code_distance
        && a.schedule_cycles == b.schedule_cycles
        && a.critical_path_cycles == b.critical_path_cycles
        && a.physical_qubits == b.physical_qubits
        && a.seconds == b.seconds && a.extras == b.extras;
}

TEST(Sweep, SurgeryDeterministicAcrossThreadCounts)
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {engine::backends::surgery_sim};
    grid.distances = {3, 5};
    grid.base.seed = 1234;

    engine::SweepOptions opts1, opts2, opts8;
    opts1.num_threads = 1;
    opts2.num_threads = 2;
    opts8.num_threads = 8;

    engine::SweepDriver driver;
    auto r1 = driver.run(grid, opts1);
    auto r2 = driver.run(grid, opts2);
    auto r8 = driver.run(grid, opts8);

    ASSERT_EQ(r1.size(), 4u);
    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_TRUE(identical(r1[i].metrics, r2[i].metrics))
            << "1-thread vs 2-thread mismatch at point " << i;
        EXPECT_TRUE(identical(r1[i].metrics, r8[i].metrics))
            << "1-thread vs 8-thread mismatch at point " << i;
    }
}

TEST(Backend, SimIgnoresHybridArbiter)
{
    // The arbiter is pinned to ForceSurgery: every hybrid_arbiter
    // value, even one the hybrid backend rejects, runs the default
    // row.
    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 2}));
    const engine::Registry &registry = engine::Registry::global();
    const engine::Backend &b =
        registry.get(engine::backends::surgery_sim);
    engine::WorkItem item;
    item.circuit = &circ;
    item.config.code_distance = 5;
    b.prepare(item);
    engine::Metrics want = b.run(item);
    for (int arbiter : {0, 1, 2, 3, 4, 7}) {
        item.config.hybrid_arbiter = arbiter;
        EXPECT_NO_THROW(b.prepare(item)) << "arbiter " << arbiter;
        EXPECT_TRUE(identical(b.run(item), want))
            << "arbiter " << arbiter;
    }
    EXPECT_THROW(
        registry.get(engine::backends::hybrid_mixed).prepare(item),
        FatalError);
}

TEST(PatchArch, LayoutNeverPlacesOnDeadPatches)
{
    circuit::Circuit c("probe", 9);
    for (int32_t q = 0; q + 1 < 9; ++q)
        c.addGate(circuit::GateKind::CNOT, q, q + 1);
    for (bool optimized : {false, true}) {
        PatchArchOptions opts;
        opts.optimized_layout = optimized;
        opts.defects.density = 0.2;
        opts.defects.seed = 11;
        PatchArch arch(circuit::interactionGraph(c), opts);
        ASSERT_GT(arch.defects().numDeadTiles(), 0)
            << "damage did not materialize; pick another seed";
        std::set<Coord> seen;
        for (int32_t q = 0; q < arch.numQubits(); ++q) {
            Coord p = arch.patchOf(q);
            EXPECT_FALSE(arch.defects().deadTile(p.x, p.y))
                << "qubit " << q << " placed on dead patch " << p;
            EXPECT_TRUE(seen.insert(p).second)
                << "qubit " << q << " shares patch " << p;
        }
        for (int f = 0; f < arch.numFactories(); ++f) {
            Coord p = arch.factoryPatch(f);
            EXPECT_FALSE(arch.defects().deadTile(p.x, p.y))
                << "factory " << f << " on dead patch " << p;
        }
    }
}

TEST(PatchArch, CorridorRouteFlipsAwayFromDisabledCoupler)
{
    // A chain machine wide enough for a same-row non-adjacent pair.
    circuit::Circuit c("probe", 6);
    for (int32_t q = 0; q + 1 < 6; ++q)
        c.addGate(circuit::GateKind::CNOT, q, q + 1);
    PatchArchOptions healthy_opts;
    healthy_opts.optimized_layout = false;
    PatchArch healthy(circuit::interactionGraph(c), healthy_opts);

    // Find a same-row pair at least two columns apart; its primary
    // corridor runs along the +1 side row, stepping down from the
    // source column first.
    int32_t qa = -1, qb = -1;
    for (int32_t a = 0; a < 6 && qa < 0; ++a)
        for (int32_t b = 0; b < 6; ++b) {
            Coord pa = healthy.patchOf(a), pb = healthy.patchOf(b);
            if (pa.y == pb.y && pb.x - pa.x >= 2
                && pa.y + 1 < healthy.patchHeight()) {
                qa = a;
                qb = b;
                break;
            }
        }
    ASSERT_GE(qa, 0) << "no same-row pair in the naive layout";
    Coord pa = healthy.patchOf(qa);

    // Break the coupler below the source patch: its straight mesh
    // segment crosses the +1 side corridor's entry column.
    PatchArchOptions opts = healthy_opts;
    opts.defects.spec_json = "{\"disabled_links\": [["
        + std::to_string(pa.x) + ", " + std::to_string(pa.y) + ", "
        + std::to_string(pa.x) + ", " + std::to_string(pa.y + 1)
        + "]]}";
    PatchArch arch(circuit::interactionGraph(c), opts);
    ASSERT_GT(arch.defects().numDisabledLinks(), 0);
    ASSERT_EQ(arch.patchOf(qa), pa) << "damage moved the layout";

    network::Path healthy_route = healthy.corridorRoute(
        healthy.terminal(qa), healthy.terminal(qb), false);
    ASSERT_FALSE(arch.routeDefectFree(healthy_route))
        << "the broken coupler misses the healthy primary route; "
           "the flip has nothing to prove";
    network::Path p =
        arch.corridorRoute(arch.terminal(qa), arch.terminal(qb),
                           false);
    EXPECT_TRUE(arch.routeDefectFree(p))
        << "corridor route crosses the disabled coupler";
    EXPECT_EQ(p.source(), arch.terminal(qa));
    EXPECT_EQ(p.dest(), arch.terminal(qb));
}

TEST(Scheduler, DamagedFabricStillSchedulesEveryGate)
{
    circuit::Circuit c("probe", 6);
    for (int32_t q = 0; q + 1 < 6; ++q)
        c.addGate(circuit::GateKind::CNOT, q, q + 1);
    HybridOptions opts = naiveOptions();
    opts.defects.density = 0.15;
    opts.defects.seed = 11;
    HybridResult r = scheduleHybrid(c, opts);
    EXPECT_GT(r.schedule_cycles, 0u);
    EXPECT_GT(r.defective_nodes + r.defective_links, 0u);
    EXPECT_GT(r.defect_dead_fraction, 0.0);

    // The same workload on the healthy fabric is never slower.
    HybridResult healthy = scheduleHybrid(c, naiveOptions());
    EXPECT_GE(r.schedule_cycles, healthy.schedule_cycles);
}

TEST(Scheduler, RejectsBadInput)
{
    circuit::Circuit empty("empty", 2);
    EXPECT_THROW(scheduleHybrid(empty, surgeryOptions()), FatalError);

    circuit::Circuit c = endToEndCnot(4);
    HybridOptions opts = surgeryOptions(0);
    EXPECT_THROW(scheduleHybrid(c, opts), FatalError);
    opts = surgeryOptions();
    opts.rounds_per_hop = 0;
    EXPECT_THROW(scheduleHybrid(c, opts), FatalError);
}

} // namespace
} // namespace qsurf::surgery
