/**
 * @file
 * Design-space model tests: these encode the paper's headline shape
 * claims — planar favorable at small computation sizes, double-defect
 * past a crossover (Figure 8), crossover ordering by application
 * parallelism, and boundary behaviour across physical error rates
 * (Figure 9).
 */

#include <gtest/gtest.h>

#include "apps/scaling.h"
#include "common/logging.h"
#include "estimate/crossover.h"
#include "estimate/model.h"

namespace qsurf::estimate {
namespace {

using apps::AppKind;
using qec::CodeKind;

ResourceModel
modelFor(AppKind app, double pp = 1e-8)
{
    qec::Technology tech;
    tech.p_physical = pp;
    return ResourceModel(app, tech);
}

TEST(Scaling, ProblemSizeInvertsOps)
{
    for (AppKind kind : apps::allApps()) {
        apps::AppScaling s(kind);
        for (double n : {8.0, 32.0, 101.0}) {
            double kq = s.opsForProblemSize(n);
            EXPECT_NEAR(s.problemSize(kq), n, n * 0.02)
                << apps::appSpec(kind).name << " at n=" << n;
        }
    }
}

TEST(Scaling, QubitsGrowWithSize)
{
    for (AppKind kind :
         {AppKind::GSE, AppKind::SQ, AppKind::IsingFull}) {
        apps::AppScaling s(kind);
        EXPECT_LT(s.logicalQubits(1e4), s.logicalQubits(1e12))
            << apps::appSpec(kind).name;
    }
}

TEST(Scaling, ParallelismMatchesAppClass)
{
    EXPECT_LT(apps::AppScaling(AppKind::GSE).parallelism(1e8), 2.0);
    EXPECT_LT(apps::AppScaling(AppKind::SQ).parallelism(1e8), 2.0);
    EXPECT_GT(apps::AppScaling(AppKind::SHA1).parallelism(1e8), 10.0);
    EXPECT_GT(apps::AppScaling(AppKind::IsingSemi).parallelism(1e8),
              10.0);
}

TEST(Scaling, FullInliningIsMoreParallel)
{
    for (double kq : {1e6, 1e10, 1e14})
        EXPECT_GT(apps::AppScaling(AppKind::IsingFull).parallelism(kq),
                  apps::AppScaling(AppKind::IsingSemi).parallelism(kq));
}

TEST(Model, EstimatesArePositiveAndConsistent)
{
    ResourceModel m = modelFor(AppKind::SQ);
    for (double kq : {1e3, 1e9, 1e15}) {
        for (CodeKind code :
             {CodeKind::Planar, CodeKind::DoubleDefect}) {
            ResourceEstimate e = m.estimate(code, kq);
            EXPECT_GT(e.physical_qubits, 0);
            EXPECT_GT(e.seconds, 0);
            EXPECT_GE(e.congestion_inflation, 1.0);
            EXPECT_EQ(e.code_distance,
                      qec::CodeModel::chooseDistance(1e-8, kq));
            EXPECT_GT(e.logical_depth, 0);
        }
    }
}

TEST(Model, TimeAndQubitsGrowWithSize)
{
    ResourceModel m = modelFor(AppKind::SQ);
    for (CodeKind code : {CodeKind::Planar, CodeKind::DoubleDefect}) {
        ResourceEstimate small = m.estimate(code, 1e4);
        ResourceEstimate large = m.estimate(code, 1e16);
        EXPECT_GT(large.seconds, small.seconds);
        EXPECT_GT(large.physical_qubits, small.physical_qubits);
    }
}

TEST(Model, DoubleDefectUsesMoreQubits)
{
    // Figure 8: the qubit ratio stays above 1 (planar tiles smaller).
    for (AppKind app : {AppKind::SQ, AppKind::IsingFull}) {
        ResourceModel m = modelFor(app);
        for (double kq : {1e4, 1e10, 1e16})
            EXPECT_GT(m.ratios(kq).qubits, 1.0)
                << apps::appSpec(app).name << " at " << kq;
    }
}

TEST(Model, SmallComputationsFavorPlanar)
{
    // Figure 8: "planar codes are better at smaller sizes".
    for (AppKind app : apps::allApps()) {
        ResourceModel m = modelFor(app);
        EXPECT_GT(m.ratios(100.0).spacetime, 1.0)
            << apps::appSpec(app).name;
    }
}

TEST(Model, FasterMachineRunsFaster)
{
    qec::Technology fast, slow;
    fast.p_physical = slow.p_physical = 1e-6;
    slow.t_two_qubit_ns = 1000;
    ResourceEstimate f = ResourceModel(AppKind::SQ, fast)
                             .estimate(CodeKind::Planar, 1e8);
    ResourceEstimate s = ResourceModel(AppKind::SQ, slow)
                             .estimate(CodeKind::Planar, 1e8);
    EXPECT_LT(f.seconds, s.seconds);
}

TEST(Crossover, ExistsForSerialApps)
{
    // Figure 8a: SQ crosses over to double-defect.
    auto x = crossoverSize(modelFor(AppKind::SQ));
    ASSERT_TRUE(x.has_value()) << "SQ crossover must exist";
    EXPECT_GT(*x, 1e2);
}

TEST(Crossover, ParallelAppsCrossLater)
{
    // Figure 8: "the cross-over point occurs at a much larger
    // computation size for IM, compared to SQ".
    auto sq = crossoverSize(modelFor(AppKind::SQ));
    auto im = crossoverSize(modelFor(AppKind::IsingFull));
    ASSERT_TRUE(sq.has_value());
    if (im.has_value()) {
        EXPECT_GT(*im, *sq * 100)
            << "IM must cross over decades later than SQ";
    }
}

TEST(Crossover, OrderingFollowsParallelism)
{
    auto gse = crossoverSize(modelFor(AppKind::GSE));
    auto sq = crossoverSize(modelFor(AppKind::SQ));
    auto sha = crossoverSize(modelFor(AppKind::SHA1));
    ASSERT_TRUE(gse.has_value());
    ASSERT_TRUE(sq.has_value());
    // GSE (1.2) and SQ (1.5) are both serial; their crossovers
    // nearly coincide, so allow one decade of slack.
    EXPECT_LE(*gse, *sq * 10);
    if (sha.has_value()) {
        EXPECT_LT(*sq, *sha)
            << "SHA-1 (parallel) must cross later than SQ (serial)";
    }
}

TEST(Crossover, SemiInlinedCrossesBeforeFullyInlined)
{
    auto semi = crossoverSize(modelFor(AppKind::IsingSemi));
    auto full = crossoverSize(modelFor(AppKind::IsingFull));
    if (semi.has_value() && full.has_value()) {
        EXPECT_LE(*semi, *full)
            << "more inlining -> more parallelism -> later crossover";
    }
}

TEST(Boundary, ProducesRequestedGrid)
{
    auto pts = favorabilityBoundary(AppKind::SQ, 1e-8, 1e-3, 6);
    ASSERT_EQ(pts.size(), 6u);
    EXPECT_DOUBLE_EQ(pts.front().p_physical, 1e-8);
    EXPECT_NEAR(pts.back().p_physical, 1e-3, 1e-12);
}

TEST(Boundary, RisesTowardFaultierTechnology)
{
    // Figure 9: boundaries move up as pP increases (right on the
    // x-axis) — congestion hurts braids more at larger d.
    for (AppKind app : {AppKind::SQ, AppKind::SHA1}) {
        auto pts = favorabilityBoundary(app, 1e-8, 1e-3, 5);
        double first = 0, last = 0;
        for (const auto &p : pts) {
            if (p.crossover && first == 0)
                first = *p.crossover;
            if (p.crossover)
                last = *p.crossover;
        }
        ASSERT_GT(first, 0.0) << apps::appSpec(app).name;
        EXPECT_GE(last, first) << apps::appSpec(app).name
                               << ": boundary must not fall with pP";
    }
}

TEST(Crossover, RejectsBadSweep)
{
    CrossoverOptions opts;
    opts.kq_min = 10;
    opts.kq_max = 5;
    EXPECT_THROW(crossoverSize(modelFor(AppKind::SQ), opts),
                 qsurf::FatalError);
}

} // namespace
} // namespace qsurf::estimate
