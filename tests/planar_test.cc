/**
 * @file
 * Planar backend tests: Multi-SIMD geometry, SIMD schedule
 * invariants, EPR pipelining (window tradeoffs of Section 8.1) and
 * the combined runPlanar path.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "circuit/dag.h"
#include "circuit/decompose.h"
#include "circuit/schedule.h"
#include "common/logging.h"
#include "planar/planar.h"

namespace qsurf::planar {
namespace {

using circuit::Circuit;
using circuit::GateKind;

Circuit
workload()
{
    apps::GenOptions opts;
    opts.problem_size = 20;
    opts.max_iterations = 2;
    return circuit::decompose(
        apps::generate(apps::AppKind::IsingFull, opts));
}

SimdArch
archFor(const Circuit &c, int regions = 4)
{
    SimdArchOptions opts;
    opts.num_regions = regions;
    opts.num_qubits = c.numQubits();
    return SimdArch(opts);
}

TEST(SimdArch, DistancesAreMetric)
{
    SimdArchOptions opts;
    opts.num_regions = 4;
    opts.num_qubits = 64;
    SimdArch arch(opts);
    EXPECT_EQ(arch.numRegions(), 4);
    for (int a = 0; a < 4; ++a) {
        EXPECT_EQ(arch.regionDistance(a, a), 0);
        for (int b = 0; b < 4; ++b)
            EXPECT_EQ(arch.regionDistance(a, b),
                      arch.regionDistance(b, a));
    }
    EXPECT_GT(arch.channelLinks(), 0);
}

TEST(SimdArch, EprDistanceCoversBothLegs)
{
    SimdArchOptions opts;
    opts.num_regions = 4;
    opts.num_qubits = 64;
    SimdArch arch(opts);
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b)
            EXPECT_GE(arch.eprDistance(a, b),
                      std::max(arch.factoryDistance(a),
                               arch.factoryDistance(b)));
}

TEST(SimdArch, RejectsBadConfig)
{
    SimdArchOptions opts;
    opts.num_regions = 0;
    EXPECT_THROW(SimdArch{opts}, qsurf::FatalError);
}

TEST(SimdSchedule, StepsCoverDepth)
{
    Circuit c = workload();
    SimdArch arch = archFor(c);
    SimdSchedule sched = scheduleSimd(c, arch);

    circuit::Dag dag(c);
    int depth = circuit::levelize(dag).depth;
    EXPECT_EQ(sched.depth, depth);
    EXPECT_GE(sched.steps, depth)
        << "region/kind serialization can only add steps";
    // All gates accounted for.
    uint64_t total = 0;
    for (int g : sched.gates_per_step)
        total += static_cast<uint64_t>(g);
    EXPECT_EQ(total, static_cast<uint64_t>(c.size()));
}

TEST(SimdSchedule, KindGroupsGoLargestFirstThenInKindOrder)
{
    // Two regions (qubit q lives in region q % 2) and two levels of
    // three or four gate kinds, some groups of equal size.  The
    // teleport list records the order the groups were visited in:
    // largest first, size ties in kind order.
    Circuit c(8);
    c.addGate(GateKind::H, 0);
    c.addGate(GateKind::H, 1);
    c.addGate(GateKind::X, 2);
    c.addGate(GateKind::X, 3);
    c.addGate(GateKind::T, 4);
    c.addGate(GateKind::T, 5);
    c.addGate(GateKind::T, 6);
    c.addGate(GateKind::Z, 7);
    c.addGate(GateKind::CNOT, 1, 2);
    c.addGate(GateKind::CNOT, 3, 4);
    c.addGate(GateKind::CZ, 5, 6);
    c.addGate(GateKind::S, 7);
    c.addGate(GateKind::S, 0);

    SimdSchedule sched = scheduleSimd(c, archFor(c, 2));
    EXPECT_EQ(sched.depth, 2);
    EXPECT_EQ(sched.steps, 4);
    EXPECT_EQ(sched.serialization_steps, 2);
    EXPECT_EQ(sched.gates_per_step, (std::vector<int>{8, 0, 5, 0}));
    // Level 0 visits T (3), H, X (2 each), Z (1); level 1 visits S,
    // CNOT (2 each), CZ (1).
    const std::vector<TeleportEvent> expected = {
        {0, 1, 0, 5}, {0, 1, 0, 1}, {0, 1, 0, 3},
        {2, 1, 0, 7}, {2, 1, 0, 1}, {2, 1, 0, 3}, {2, 1, 0, 5}};
    ASSERT_EQ(sched.teleports.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        const TeleportEvent &got = sched.teleports[i];
        EXPECT_EQ(got.step, expected[i].step) << "teleport " << i;
        EXPECT_EQ(got.src_region, expected[i].src_region)
            << "teleport " << i;
        EXPECT_EQ(got.dst_region, expected[i].dst_region)
            << "teleport " << i;
        EXPECT_EQ(got.qubit, expected[i].qubit) << "teleport " << i;
    }
    EXPECT_EQ(sched.steps_with_teleports, 6);
}

TEST(SimdSchedule, TeleportsAreStepOrderedAndValid)
{
    Circuit c = workload();
    SimdArch arch = archFor(c);
    SimdSchedule sched = scheduleSimd(c, arch);
    int prev = 0;
    for (const TeleportEvent &e : sched.teleports) {
        EXPECT_GE(e.step, prev);
        prev = e.step;
        EXPECT_NE(e.src_region, e.dst_region);
        EXPECT_GE(e.qubit, 0);
        EXPECT_LT(e.qubit, c.numQubits());
    }
}

TEST(SimdSchedule, SingleRegionNeedsNoTeleports)
{
    Circuit c = workload();
    SimdArch arch = archFor(c, 1);
    SimdSchedule sched = scheduleSimd(c, arch);
    EXPECT_TRUE(sched.teleports.empty());
}

TEST(SimdSchedule, LocalityBoundsTeleportRate)
{
    Circuit c = workload();
    SimdSchedule sched = scheduleSimd(c, archFor(c));
    // Worst case is 2 moves/gate; locality should do far better.
    EXPECT_LT(sched.teleportRate(), 1.0);
}

TEST(Epr, NoTeleportsMeansNoStalls)
{
    Circuit c = workload();
    SimdArch arch = archFor(c, 1);
    SimdSchedule sched = scheduleSimd(c, arch);
    EprResult r = simulateEpr(sched, arch);
    EXPECT_EQ(r.stall_cycles, 0u);
    EXPECT_EQ(r.peak_live_eprs, 0u);
    EXPECT_EQ(r.schedule_cycles, r.nominal_cycles);
}

TEST(Epr, PrefetchAllMaximizesFootprint)
{
    // SHA-1 moves words between regions throughout the run, giving
    // a teleport stream spread over time (IM's chain locality
    // settles after the first step and would make windows moot).
    apps::GenOptions gopts;
    gopts.problem_size = 8;
    gopts.max_iterations = 4;
    Circuit c = circuit::decompose(
        apps::generate(apps::AppKind::SHA1, gopts));
    SimdArch arch = archFor(c);
    SimdSchedule sched = scheduleSimd(c, arch);
    ASSERT_FALSE(sched.teleports.empty());

    EprOptions jit;
    jit.window_steps = 4;
    EprOptions all;
    all.window_steps = 0; // prefetch everything at cycle 0.
    EprResult r_jit = simulateEpr(sched, arch, jit);
    EprResult r_all = simulateEpr(sched, arch, all);

    // Section 8.1: just-in-time distribution saves qubits (the
    // time-averaged footprint shrinks sharply; the peak can only
    // shrink or stay)...
    EXPECT_LE(r_jit.peak_live_eprs, r_all.peak_live_eprs);
    EXPECT_LT(r_jit.avg_live_eprs, r_all.avg_live_eprs);
    // ...at a modest latency cost.
    EXPECT_LE(r_jit.schedule_cycles, r_all.schedule_cycles * 3);
}

TEST(Epr, TinyWindowStallsMore)
{
    Circuit c = workload();
    SimdArch arch = archFor(c);
    SimdSchedule sched = scheduleSimd(c, arch);
    ASSERT_FALSE(sched.teleports.empty());

    EprOptions tiny;
    tiny.window_steps = 1;
    tiny.bandwidth = 2;
    EprOptions wide;
    wide.window_steps = 64;
    wide.bandwidth = 2;
    EprResult r_tiny = simulateEpr(sched, arch, tiny);
    EprResult r_wide = simulateEpr(sched, arch, wide);
    EXPECT_GE(r_tiny.stall_cycles, r_wide.stall_cycles)
        << "starved windows must stall at least as much";
}

TEST(Epr, LiveEprAccountingConsistent)
{
    Circuit c = workload();
    SimdArch arch = archFor(c);
    SimdSchedule sched = scheduleSimd(c, arch);
    EprResult r = simulateEpr(sched, arch);
    EXPECT_EQ(r.teleports, sched.teleports.size());
    EXPECT_GE(r.peak_live_eprs, 1u);
    EXPECT_LE(r.avg_live_eprs,
              static_cast<double>(r.peak_live_eprs));
}

TEST(RunPlanar, EndToEndInvariants)
{
    Circuit c = workload();
    PlanarOptions opts;
    opts.code_distance = 3;
    PlanarResult r = runPlanar(c, opts);
    EXPECT_GE(r.schedule_cycles, r.critical_path_cycles);
    EXPECT_GT(r.steps, 0);
    EXPECT_GE(r.ratio(), 1.0);
    EXPECT_GT(r.teleports, 0u);
}

TEST(RunPlanar, RejectsEmpty)
{
    Circuit c(2);
    EXPECT_THROW(runPlanar(c), qsurf::FatalError);
}

} // namespace
} // namespace qsurf::planar
