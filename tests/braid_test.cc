/**
 * @file
 * Braid-scheduler tests: critical-path model, completion and bound
 * properties under every policy (parameterized sweep), policy
 * ordering on parallel workloads, and the tiled architecture.
 */

#include <gtest/gtest.h>

#include <set>

#include "apps/apps.h"
#include "braid/scheduler.h"
#include "circuit/decompose.h"
#include "common/logging.h"

namespace qsurf::braid {
namespace {

using circuit::Circuit;
using circuit::GateKind;

Circuit
parallelWorkload()
{
    // Many concurrent long-range CNOTs: high contention risk.
    apps::GenOptions opts;
    opts.problem_size = 24;
    opts.max_iterations = 2;
    return circuit::decompose(
        apps::generate(apps::AppKind::IsingFull, opts));
}

Circuit
serialWorkload()
{
    apps::GenOptions opts;
    opts.problem_size = 8;
    opts.max_iterations = 2;
    return circuit::decompose(
        apps::generate(apps::AppKind::GSE, opts));
}

BraidOptions
smallOptions()
{
    BraidOptions opts;
    opts.code_distance = 3;
    return opts;
}

TEST(CriticalPath, SerialChainSumsLatencies)
{
    Circuit c(1);
    for (int i = 0; i < 4; ++i)
        c.addGate(GateKind::H, 0); // 1q: d cycles each
    EXPECT_EQ(braidCriticalPath(c, circuit::Dag(c), 5), 4u * 5u);
}

TEST(CriticalPath, TwoQubitLatency)
{
    Circuit c(2);
    c.addGate(GateKind::CNOT, 0, 1); // 2d+2
    EXPECT_EQ(braidCriticalPath(c, circuit::Dag(c), 5), 12u);
}

TEST(CriticalPath, TGateLatency)
{
    Circuit c(1);
    c.addGate(GateKind::T, 0); // d+1
    EXPECT_EQ(braidCriticalPath(c, circuit::Dag(c), 5), 6u);
}

TEST(CriticalPath, ParallelGatesShareLevels)
{
    Circuit c(4);
    for (int q = 0; q < 4; ++q)
        c.addGate(GateKind::H, q);
    EXPECT_EQ(braidCriticalPath(c, circuit::Dag(c), 7), 7u);
}

TEST(TiledArch, GeometryCoversQubits)
{
    Circuit c(10);
    c.addGate(GateKind::CNOT, 0, 9);
    auto graph = circuit::interactionGraph(c);
    TiledArch arch(graph, TiledArchOptions{});
    EXPECT_EQ(arch.numQubits(), 10);
    EXPECT_GE(arch.numFactories(), 1);
    // All terminals distinct and inside the mesh.
    auto mesh = arch.makeMesh();
    std::set<std::pair<int, int>> seen;
    for (int q = 0; q < 10; ++q) {
        Coord t = arch.terminal(q);
        EXPECT_TRUE(mesh.contains(t));
        EXPECT_TRUE(seen.insert({t.x, t.y}).second);
    }
    for (int f = 0; f < arch.numFactories(); ++f) {
        Coord t = arch.factoryTerminal(f);
        EXPECT_TRUE(mesh.contains(t));
        EXPECT_TRUE(seen.insert({t.x, t.y}).second)
            << "factory terminal collides with a data tile";
    }
}

TEST(TiledArch, FactoriesSortedByDistance)
{
    Circuit c(30);
    c.addGate(GateKind::H, 0);
    auto graph = circuit::interactionGraph(c);
    TiledArch arch(graph, TiledArchOptions{});
    auto order = arch.factoriesByDistance(0);
    ASSERT_EQ(static_cast<int>(order.size()), arch.numFactories());
    for (size_t i = 0; i + 1 < order.size(); ++i)
        EXPECT_LE(manhattan(arch.terminal(0),
                            arch.factoryTerminal(order[i])),
                  manhattan(arch.terminal(0),
                            arch.factoryTerminal(order[i + 1])));
}

TEST(TiledArch, OptimizedLayoutShortensInteractions)
{
    // SHA-1's word registers interact across distant qubit ids, so
    // the naive row-major arrangement is poor and the interaction-
    // aware layout must shorten braid routes (Section 6.2).
    apps::GenOptions gopts;
    gopts.problem_size = 8;
    gopts.max_iterations = 2;
    Circuit c = apps::generate(apps::AppKind::SHA1, gopts);
    auto graph = circuit::interactionGraph(c);

    TiledArchOptions naive;
    naive.optimized_layout = false;
    TiledArchOptions opt;
    opt.optimized_layout = true;
    double naive_cost = TiledArch(graph, naive).layoutCost(graph);
    double opt_cost = TiledArch(graph, opt).layoutCost(graph);
    EXPECT_LT(opt_cost, naive_cost);
}

TEST(Scheduler, RejectsEmptyAndUndistilled)
{
    Circuit empty(2);
    EXPECT_THROW(scheduleBraids(empty, Policy::Combined),
                 qsurf::FatalError);
    Circuit tof(3);
    tof.addGate(GateKind::Toffoli, 0, 1, 2);
    EXPECT_THROW(scheduleBraids(tof, Policy::Combined),
                 qsurf::FatalError);
}

TEST(Scheduler, SingleGateCompletes)
{
    Circuit c(2);
    c.addGate(GateKind::CNOT, 0, 1);
    BraidResult r =
        scheduleBraids(c, Policy::Combined, smallOptions());
    EXPECT_EQ(r.braids_placed, 2u) << "two segments per 2q op";
    EXPECT_GE(r.schedule_cycles, r.critical_path_cycles);
}

TEST(Scheduler, PolicyNamesAreStable)
{
    EXPECT_STREQ(policyName(Policy::ProgramOrder), "Policy 0");
    EXPECT_STREQ(policyName(Policy::Combined), "Policy 6");
}

/** Parameterized across all 7 policies: universal invariants. */
class PolicySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PolicySweep, CompletesAndBoundsHold)
{
    auto policy = static_cast<Policy>(GetParam());
    Circuit c = parallelWorkload();
    BraidResult r = scheduleBraids(c, policy, smallOptions());

    // The schedule can never beat the dependence-limited bound.
    EXPECT_GE(r.schedule_cycles, r.critical_path_cycles);
    EXPECT_GT(r.critical_path_cycles, 0u);
    EXPECT_GE(r.mesh_utilization, 0.0);
    EXPECT_LE(r.mesh_utilization, 1.0);
    // Every 2q op contributes 2 segments, every T op 1.
    circuit::OpCounts k = c.counts();
    EXPECT_EQ(r.braids_placed, 2 * k.two_qubit + k.t_gates);
}

TEST_P(PolicySweep, DeterministicRerun)
{
    auto policy = static_cast<Policy>(GetParam());
    Circuit c = serialWorkload();
    BraidResult a = scheduleBraids(c, policy, smallOptions());
    BraidResult b = scheduleBraids(c, policy, smallOptions());
    EXPECT_EQ(a.schedule_cycles, b.schedule_cycles);
    EXPECT_EQ(a.braids_placed, b.braids_placed);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySweep,
                         ::testing::Range(0, num_policies));

TEST(PolicyOrdering, InterleavingBeatsProgramOrderOnParallelApps)
{
    Circuit c = parallelWorkload();
    BraidOptions opts = smallOptions();
    BraidResult p0 = scheduleBraids(c, Policy::ProgramOrder, opts);
    BraidResult p1 = scheduleBraids(c, Policy::Interleave, opts);
    EXPECT_LT(p1.schedule_cycles, p0.schedule_cycles)
        << "event interleaving must help a parallel app";
}

TEST(PolicyOrdering, CombinedPolicyNearCriticalPath)
{
    Circuit c = parallelWorkload();
    BraidOptions opts = smallOptions();
    BraidResult p0 = scheduleBraids(c, Policy::ProgramOrder, opts);
    BraidResult p6 = scheduleBraids(c, Policy::Combined, opts);
    EXPECT_LT(p6.schedule_cycles, p0.schedule_cycles);
    // Figure 6: the best policy lands within a small factor of the
    // critical path for parallel apps.
    EXPECT_LT(p6.ratio(), 4.0)
        << "Policy 6 should approach the critical path";
}

TEST(PolicyOrdering, SerialAppsAlreadyNearCriticalPath)
{
    Circuit c = serialWorkload();
    BraidResult r =
        scheduleBraids(c, Policy::Interleave, smallOptions());
    // Section 6.3: "serial applications already achieve
    // close-to-critical-path schedules".
    EXPECT_LT(r.ratio(), 2.0);
}

TEST(PolicyOrdering, UtilizationRisesWithBetterPolicies)
{
    Circuit c = parallelWorkload();
    BraidOptions opts = smallOptions();
    BraidResult p0 = scheduleBraids(c, Policy::ProgramOrder, opts);
    BraidResult p6 = scheduleBraids(c, Policy::Combined, opts);
    EXPECT_GT(p6.mesh_utilization, p0.mesh_utilization)
        << "denser schedules use the mesh harder (Figure 6)";
}

} // namespace
} // namespace qsurf::braid
