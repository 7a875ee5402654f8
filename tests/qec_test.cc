/**
 * @file
 * Tests of the QEC math: code-distance selection against the
 * logical/physical error gap (Section 2.2), tile footprints
 * (Section 2.3.1) and factory allocation (Section 4.3).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "qec/code.h"
#include "qec/factory.h"
#include "qec/technology.h"

namespace qsurf::qec {
namespace {

TEST(CodeModel, LogicalErrorDecreasesWithDistance)
{
    double prev = 1;
    for (int d = 3; d <= 21; d += 2) {
        double pl = CodeModel::logicalErrorPerOp(1e-4, d);
        EXPECT_LT(pl, prev);
        prev = pl;
    }
}

TEST(CodeModel, LogicalErrorIncreasesWithPhysicalError)
{
    EXPECT_LT(CodeModel::logicalErrorPerOp(1e-6, 5),
              CodeModel::logicalErrorPerOp(1e-4, 5));
}

TEST(CodeModel, ChosenDistanceMeetsTarget)
{
    for (double p : {1e-3, 1e-5, 1e-8})
        for (double kq : {1e2, 1e6, 1e12, 1e18}) {
            int d = CodeModel::chooseDistance(p, kq);
            EXPECT_GE(d, CodeModel::min_distance);
            EXPECT_EQ(d % 2, 1) << "distance must be odd";
            EXPECT_LE(CodeModel::logicalErrorPerOp(p, d),
                      CodeModel::targetLogicalError(kq));
            // Minimality: two less would not suffice (unless at min).
            if (d > CodeModel::min_distance) {
                EXPECT_GT(CodeModel::logicalErrorPerOp(p, d - 2),
                          CodeModel::targetLogicalError(kq));
            }
        }
}

TEST(CodeModel, DistanceMonotoneInComputationSize)
{
    int prev = 0;
    for (double kq = 1e2; kq <= 1e20; kq *= 100) {
        int d = CodeModel::chooseDistance(1e-4, kq);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

TEST(CodeModel, DistanceMonotoneInPhysicalError)
{
    EXPECT_LE(CodeModel::chooseDistance(1e-8, 1e10),
              CodeModel::chooseDistance(1e-4, 1e10));
}

TEST(CodeModel, AboveThresholdIsFatal)
{
    EXPECT_THROW(CodeModel::chooseDistance(1e-2, 100),
                 qsurf::FatalError);
    EXPECT_THROW(CodeModel::chooseDistance(0.5, 100),
                 qsurf::FatalError);
}

TEST(CodeModel, TargetHalvesOverOps)
{
    EXPECT_DOUBLE_EQ(CodeModel::targetLogicalError(1e12),
                     0.5e-12);
}

TEST(Tiles, PlanarFootprint)
{
    EXPECT_EQ(planarTileQubits(3), 25u);   // (2*3-1)^2
    EXPECT_EQ(planarTileQubits(5), 81u);
}

TEST(Tiles, DoubleDefectIsTwicePlanar)
{
    for (int d = 3; d <= 15; d += 2)
        EXPECT_EQ(doubleDefectTileQubits(d), 2 * planarTileQubits(d));
}

TEST(Tiles, DispatchMatchesKind)
{
    EXPECT_EQ(tileQubits(CodeKind::Planar, 5), planarTileQubits(5));
    EXPECT_EQ(tileQubits(CodeKind::DoubleDefect, 5),
              doubleDefectTileQubits(5));
}

TEST(Tiles, PlanarSpaceOverheadExceedsDoubleDefect)
{
    // Planar pays for EPR factories, buffers and swap channels.
    EXPECT_GT(spaceOverheadFactor(CodeKind::Planar),
              spaceOverheadFactor(CodeKind::DoubleDefect));
    EXPECT_GE(spaceOverheadFactor(CodeKind::DoubleDefect), 1.0);
}

TEST(Technology, CycleTimeComposition)
{
    Technology t;
    // 4 x 100ns 2q + 2 x 10ns 1q + 100ns measure = 520ns.
    EXPECT_DOUBLE_EQ(t.surfaceCycleNs(), 520.0);
    EXPECT_DOUBLE_EQ(t.tSingleQubitNs(), 10.0);
}

TEST(Technology, SwapHopScalesWithDistance)
{
    Technology t;
    EXPECT_GT(t.swapHopCycles(9), t.swapHopCycles(3));
    EXPECT_NEAR(t.swapHopCycles(5), 2.0 * 5 * 300.0 / 520.0, 1e-9);
}

TEST(Technology, NamedDesignPoints)
{
    EXPECT_DOUBLE_EQ(tech_points::current().p_physical, 1e-3);
    EXPECT_DOUBLE_EQ(tech_points::futureOptimistic().p_physical, 1e-8);
}

TEST(Technology, CheckRejectsNonsense)
{
    Technology t;
    t.p_physical = 0;
    EXPECT_THROW(t.check(), qsurf::FatalError);
    t = Technology{};
    t.t_two_qubit_ns = -1;
    EXPECT_THROW(t.check(), qsurf::FatalError);
}

TEST(Factory, AllocationScalesWithData)
{
    FactoryAllocation small = allocateFactories(8, false);
    FactoryAllocation large = allocateFactories(800, false);
    EXPECT_GE(small.magic_factories, 1);
    EXPECT_GT(large.magic_factories, small.magic_factories);
    EXPECT_EQ(small.epr_factories, 0);
}

TEST(Factory, PlanarGetsEprFactories)
{
    FactoryAllocation a = allocateFactories(400, true);
    EXPECT_GE(a.magic_factories, 1);
    EXPECT_GE(a.epr_factories, 1);
    EXPECT_GT(a.total_tiles, 0);
}

TEST(Factory, RatesArePositive)
{
    FactoryAllocation a = allocateFactories(100, true);
    EXPECT_GT(a.magicRate(), 0);
    EXPECT_GT(a.eprRate(), 0);
}

TEST(Factory, RejectsZeroDataTiles)
{
    EXPECT_THROW(allocateFactories(0, true), qsurf::FatalError);
}

} // namespace
} // namespace qsurf::qec
