/**
 * @file
 * Magic-state throughput tests (Section 4.3): when distillation is
 * rate-limited, T-heavy programs stall on factory supply; sizing the
 * factories off the critical path removes the stalls.
 */

#include <gtest/gtest.h>

#include "braid/scheduler.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "hybrid/scheduler.h"

namespace qsurf::braid {
namespace {

using circuit::Circuit;
using circuit::GateKind;

/** T-heavy parallel workload: independent T chains on many qubits. */
Circuit
tHeavy(int qubits, int depth)
{
    Circuit c("t-heavy", qubits);
    for (int i = 0; i < depth; ++i)
        for (int q = 0; q < qubits; ++q)
            c.addGate(i % 2 ? GateKind::T : GateKind::Tdag, q);
    return c;
}

BraidOptions
withProduction(int cycles_per_state)
{
    BraidOptions opts;
    opts.code_distance = 3;
    opts.magic_production_cycles = cycles_per_state;
    return opts;
}

TEST(MagicFactory, UnlimitedProductionNeverStarves)
{
    Circuit c = tHeavy(16, 6);
    BraidOptions opts;
    opts.code_distance = 3;
    BraidResult r = scheduleBraids(c, Policy::Combined, opts);
    EXPECT_EQ(r.magic_starvations, 0u);
}

TEST(MagicFactory, SlowProductionStallsTGates)
{
    Circuit c = tHeavy(16, 6);
    BraidResult r =
        scheduleBraids(c, Policy::Combined, withProduction(200));
    EXPECT_GT(r.magic_starvations, 0u)
        << "200-cycle distillation must starve a T-heavy program";
}

TEST(MagicFactory, ProductionRateBoundsSchedule)
{
    Circuit c = tHeavy(12, 4);
    BraidResult fast =
        scheduleBraids(c, Policy::Combined, withProduction(1));
    BraidResult slow =
        scheduleBraids(c, Policy::Combined, withProduction(400));
    EXPECT_GT(slow.schedule_cycles, fast.schedule_cycles * 2)
        << "distillation throughput must dominate a T-bound app";
}

TEST(MagicFactory, SupplyConstrainedScheduleStillCompletes)
{
    Circuit c = tHeavy(8, 3);
    BraidResult r =
        scheduleBraids(c, Policy::Combined, withProduction(500));
    EXPECT_EQ(r.braids_placed, static_cast<uint64_t>(c.size()));
}

TEST(MagicFactory, BufferCapacitySmoothsBursts)
{
    Circuit c = tHeavy(16, 4);
    BraidOptions small = withProduction(60);
    small.magic_buffer_capacity = 1;
    BraidOptions big = withProduction(60);
    big.magic_buffer_capacity = 8;
    BraidResult rs = scheduleBraids(c, Policy::Combined, small);
    BraidResult rb = scheduleBraids(c, Policy::Combined, big);
    EXPECT_LE(rb.schedule_cycles, rs.schedule_cycles)
        << "deeper buffers can only help bursty demand";
}

TEST(MagicFactory, CliffordProgramsUnaffected)
{
    Circuit c(8);
    for (int i = 0; i < 20; ++i)
        c.addGate(GateKind::CNOT, static_cast<int32_t>(i % 7),
                  static_cast<int32_t>(7));
    BraidResult limited =
        scheduleBraids(c, Policy::Combined, withProduction(1000));
    BraidOptions unlimited;
    unlimited.code_distance = 3;
    BraidResult free_run =
        scheduleBraids(c, Policy::Combined, unlimited);
    EXPECT_EQ(limited.schedule_cycles, free_run.schedule_cycles);
    EXPECT_EQ(limited.magic_starvations, 0u);
}

TEST(MagicFactory, ProgramOrderPolicyAlsoHonorsSupply)
{
    Circuit c = tHeavy(6, 3);
    BraidResult r =
        scheduleBraids(c, Policy::ProgramOrder, withProduction(300));
    EXPECT_EQ(r.braids_placed, static_cast<uint64_t>(c.size()));
    EXPECT_GT(r.magic_starvations, 0u);
}

/**
 * The lattice-surgery side of the same model (the hybrid scheduler
 * pinned to merge/split chains): factory patches used to be always
 * stocked, so a T-heavy program never waited on distillation.  The
 * shared engine::MagicFactoryPool now gates T-gate merges on supply.
 */
hybrid::HybridOptions
surgeryOptions()
{
    hybrid::HybridOptions opts;
    opts.arbiter = hybrid::ArbiterKind::ForceSurgery;
    opts.code_distance = 3;
    return opts;
}

hybrid::HybridOptions
surgeryProduction(int cycles_per_state)
{
    hybrid::HybridOptions opts = surgeryOptions();
    opts.magic_production_cycles = cycles_per_state;
    return opts;
}

TEST(MagicFactorySurgery, UnlimitedProductionNeverStarves)
{
    Circuit c = tHeavy(16, 6);
    hybrid::HybridResult r = hybrid::scheduleHybrid(c, surgeryOptions());
    EXPECT_EQ(r.magic_starvations, 0u);
}

TEST(MagicFactorySurgery, SlowProductionStallsTGates)
{
    Circuit c = tHeavy(16, 6);
    hybrid::HybridResult r =
        hybrid::scheduleHybrid(c, surgeryProduction(200));
    EXPECT_GT(r.magic_starvations, 0u)
        << "200-cycle distillation must starve a T-heavy program";
    EXPECT_EQ(r.surgery_ops, static_cast<uint64_t>(c.size()));
}

TEST(MagicFactorySurgery, ProductionRateBoundsSchedule)
{
    Circuit c = tHeavy(12, 4);
    hybrid::HybridResult fast =
        hybrid::scheduleHybrid(c, surgeryProduction(1));
    hybrid::HybridResult slow =
        hybrid::scheduleHybrid(c, surgeryProduction(400));
    EXPECT_GT(slow.schedule_cycles, fast.schedule_cycles * 2)
        << "distillation throughput must dominate a T-bound app";
}

TEST(MagicFactorySurgery, CliffordProgramsUnaffected)
{
    Circuit c(8);
    for (int i = 0; i < 20; ++i)
        c.addGate(GateKind::CNOT, static_cast<int32_t>(i % 7),
                  static_cast<int32_t>(7));
    hybrid::HybridResult limited =
        hybrid::scheduleHybrid(c, surgeryProduction(1000));
    hybrid::HybridResult free_run =
        hybrid::scheduleHybrid(c, surgeryOptions());
    EXPECT_EQ(limited.schedule_cycles, free_run.schedule_cycles);
    EXPECT_EQ(limited.magic_starvations, 0u);
}

} // namespace
} // namespace qsurf::braid
