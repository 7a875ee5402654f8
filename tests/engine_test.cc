/**
 * @file
 * Engine-layer tests: registry lookup and duplicate-registration
 * errors, backend/simulator equivalence (the engine interface must
 * be a faithful adapter, not a reimplementation), and the uniform
 * Metrics record.
 */

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "braid/scheduler.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sim.h"
#include "estimate/model.h"
#include "planar/planar.h"

namespace qsurf::engine {
namespace {

circuit::Circuit
smallCircuit()
{
    apps::GenOptions opts;
    opts.problem_size = 8;
    opts.max_iterations = 2;
    return circuit::decompose(
        apps::generate(apps::AppKind::SQ, opts));
}

WorkItem
itemFor(const circuit::Circuit *circ)
{
    WorkItem item;
    item.app = apps::AppKind::SQ;
    item.circuit = circ;
    item.config.code_distance = 5;
    item.config.seed = 7;
    return item;
}

/** Minimal backend for registration tests. */
class StubBackend : public Backend
{
  public:
    explicit StubBackend(std::string name) : label(std::move(name)) {}
    std::string name() const override { return label; }
    qec::CodeKind code() const override { return qec::CodeKind::Planar; }
    bool needsCircuit() const override { return false; }
    Metrics
    run(const WorkItem &) const override
    {
        Metrics m;
        m.backend = label;
        return m;
    }

  private:
    std::string label;
};

TEST(Registry, GlobalHasBuiltinBackends)
{
    Registry &r = Registry::global();
    for (const char *name :
         {backends::planar, backends::double_defect,
          backends::planar_model, backends::double_defect_model,
          backends::surgery_sim, backends::surgery_model,
          backends::hybrid_mixed}) {
        EXPECT_TRUE(r.contains(name)) << name;
        EXPECT_EQ(r.get(name).name(), name);
    }
    EXPECT_EQ(r.names().size(), 7u);
}

TEST(Registry, NamesAreSorted)
{
    auto names = Registry::global().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, UnknownNameIsFatalAndListsRegistered)
{
    try {
        Registry::global().get("no-such-backend");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("no-such-backend"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find(backends::planar),
                  std::string::npos);
    }
}

TEST(Registry, DuplicateRegistrationIsFatal)
{
    Registry r;
    r.add(std::make_unique<StubBackend>("stub"));
    EXPECT_THROW(r.add(std::make_unique<StubBackend>("stub")),
                 FatalError);
}

TEST(Registry, PrivateRegistriesAreIndependent)
{
    Registry r;
    registerBuiltinBackends(r);
    r.add(std::make_unique<StubBackend>("stub"));
    EXPECT_TRUE(r.contains("stub"));
    EXPECT_FALSE(Registry::global().contains("stub"));
}

TEST(Backend, DoubleDefectMatchesDirectSimulation)
{
    circuit::Circuit circ = smallCircuit();
    WorkItem item = itemFor(&circ);
    item.config.policy = 3;

    braid::BraidOptions opts;
    opts.code_distance = 5;
    opts.seed = 7;
    braid::BraidResult direct = braid::scheduleBraids(
        circ, braid::Policy::Criticality, opts);

    const Backend &b =
        Registry::global().get(backends::double_defect);
    Metrics m = b.run(item);
    EXPECT_EQ(m.schedule_cycles, direct.schedule_cycles);
    EXPECT_EQ(m.critical_path_cycles, direct.critical_path_cycles);
    EXPECT_DOUBLE_EQ(m.extra("mesh_utilization"),
                     direct.mesh_utilization);
    EXPECT_EQ(m.code, qec::CodeKind::DoubleDefect);
    EXPECT_EQ(m.code_distance, 5);
}

TEST(Backend, PlanarMatchesDirectSimulation)
{
    circuit::Circuit circ = smallCircuit();
    WorkItem item = itemFor(&circ);

    planar::PlanarOptions opts;
    opts.code_distance = 5;
    planar::PlanarResult direct = planar::runPlanar(circ, opts);

    const Backend &b = Registry::global().get(backends::planar);
    Metrics m = b.run(item);
    EXPECT_EQ(m.schedule_cycles, direct.schedule_cycles);
    EXPECT_EQ(m.critical_path_cycles, direct.critical_path_cycles);
    EXPECT_DOUBLE_EQ(m.extra("teleports"),
                     static_cast<double>(direct.teleports));
}

TEST(Backend, ModelMatchesDirectEstimate)
{
    WorkItem item;
    item.app = apps::AppKind::SQ;
    item.config.kq = 1e8;
    item.config.tech = qec::tech_points::futureOptimistic();

    estimate::ResourceModel model(apps::AppKind::SQ,
                                  item.config.tech);
    auto direct = model.estimate(qec::CodeKind::Planar, 1e8);

    const Backend &b = Registry::global().get(backends::planar_model);
    EXPECT_FALSE(b.needsCircuit());
    Metrics m = b.run(item);
    EXPECT_EQ(m.code_distance, direct.code_distance);
    EXPECT_DOUBLE_EQ(m.physical_qubits, direct.physical_qubits);
    EXPECT_DOUBLE_EQ(m.seconds, direct.seconds);
    EXPECT_DOUBLE_EQ(m.spaceTime(), direct.spaceTime());
}

TEST(Backend, PrepareRejectsMissingCircuit)
{
    WorkItem item;
    EXPECT_THROW(
        Registry::global().get(backends::planar).prepare(item),
        FatalError);
}

TEST(Backend, PrepareRejectsBadPolicy)
{
    circuit::Circuit circ = smallCircuit();
    WorkItem item = itemFor(&circ);
    item.config.policy = 99;
    EXPECT_THROW(
        Registry::global().get(backends::double_defect).prepare(item),
        FatalError);
}

TEST(Backend, ModelPrepareNeedsSizeOrCircuit)
{
    WorkItem item;
    EXPECT_THROW(
        Registry::global().get(backends::planar_model).prepare(item),
        FatalError);
    item.config.kq = 1e6;
    EXPECT_NO_THROW(
        Registry::global().get(backends::planar_model).prepare(item));
}

TEST(Metrics, ExtrasSetGetOverwrite)
{
    Metrics m;
    EXPECT_FALSE(m.has("x"));
    EXPECT_DOUBLE_EQ(m.extra("x", -1), -1);
    m.set("x", 2.5);
    EXPECT_TRUE(m.has("x"));
    EXPECT_DOUBLE_EQ(m.extra("x"), 2.5);
    m.set("x", 3.5);
    EXPECT_DOUBLE_EQ(m.extra("x"), 3.5);
    EXPECT_EQ(m.extras.size(), 1u);
}

TEST(Metrics, RatioAndSpaceTime)
{
    Metrics m;
    m.schedule_cycles = 200;
    m.critical_path_cycles = 100;
    m.physical_qubits = 10;
    m.seconds = 3;
    EXPECT_DOUBLE_EQ(m.ratio(), 2.0);
    EXPECT_DOUBLE_EQ(m.spaceTime(), 30.0);
    m.critical_path_cycles = 0;
    EXPECT_DOUBLE_EQ(m.ratio(), 0.0);
}

TEST(Seeding, MixSeedDecorrelatesIndices)
{
    EXPECT_NE(mixSeed(1, 0), mixSeed(1, 1));
    EXPECT_NE(mixSeed(1, 0), mixSeed(2, 0));
    // Deterministic.
    EXPECT_EQ(mixSeed(42, 17), mixSeed(42, 17));
}

TEST(WorkItem, ResolveDistanceHonorsOverride)
{
    circuit::Circuit circ = smallCircuit();
    WorkItem item = itemFor(&circ);
    EXPECT_EQ(item.resolveDistance(), 5);
    item.config.code_distance = 0;
    EXPECT_GE(item.resolveDistance(), 3);
}

TEST(ExpiryQueue, NextDeadlineIsEarliestScheduled)
{
    ExpiryQueue q;
    EXPECT_FALSE(q.nextDeadline().has_value());
    q.schedule(30, 1);
    q.schedule(10, 2);
    q.schedule(20, 3);
    ASSERT_TRUE(q.nextDeadline().has_value());
    EXPECT_EQ(*q.nextDeadline(), 10u);
    EXPECT_EQ(q.popRipe(10), std::optional<int>(2));
    EXPECT_EQ(*q.nextDeadline(), 20u);
}

TEST(FastForward, NoCandidatesSkipsToHorizon)
{
    // An event-free schedule must still terminate: with nothing to
    // wait for, the jump lands past the horizon so the caller's
    // max-cycles guard fires.
    FastForward ff;
    ff.begin(100);
    EXPECT_EQ(ff.skippable(1000), 899u);
}

TEST(FastForward, ExpiryBoundsTheJump)
{
    FastForward ff;
    ff.begin(100);
    ff.eventAt(150);
    // Iterations 101..149 are boring; the pass at 150 sees the
    // retirement (released routes, readied successors).
    EXPECT_EQ(ff.skippable(1000), 49u);

    // An event at the very next cycle means nothing to skip.
    ff.begin(100);
    ff.eventAt(101);
    EXPECT_EQ(ff.skippable(1000), 0u);
}

TEST(FastForward, StalledOpStopsOnEscalationThresholds)
{
    RouteClaimOptions route;
    route.adapt_timeout = 4;
    route.bfs_timeout = 8;

    // Fresh op (routed with wait 0, now 1): next behavior change is
    // the adapt_timeout crossing, where the pass at now+4 routes
    // with wait 4 and first tries the transposed geometry.
    FastForward ff;
    ff.begin(100);
    ff.stalledOp(0, 1, route, 16);
    EXPECT_EQ(ff.skippable(1000), 3u);

    // Past adapt, before bfs: stop on the bfs_timeout crossing.
    ff.begin(100);
    ff.stalledOp(4, 5, route, 16);
    EXPECT_EQ(ff.skippable(1000), 3u);

    // Fully escalated: only the drop threshold remains.
    ff.begin(100);
    ff.stalledOp(9, 10, route, 16);
    EXPECT_EQ(ff.skippable(1000), 5u);
}

TEST(FastForward, TightestCandidateWins)
{
    RouteClaimOptions route;
    route.adapt_timeout = 4;
    route.bfs_timeout = 8;

    FastForward ff;
    ff.begin(100);
    ff.eventAt(200);              // far retirement
    ff.stalledOp(9, 10, route, 16); // drop crossing in 6
    ff.stalledOp(0, 1, route, 16);  // adapt crossing in 4
    EXPECT_EQ(ff.skippable(1000), 3u);
}

TEST(FastForward, RecordsSkippedCycles)
{
    FastForward ff;
    EXPECT_EQ(ff.skipped(), 0u);
    ff.recordSkip(7);
    ff.recordSkip(5);
    EXPECT_EQ(ff.skipped(), 12u);
}

TEST(EscalationStage, NamesTheRoutesAnAttemptTries)
{
    RouteClaimOptions route;
    route.adapt_timeout = 4;
    route.bfs_timeout = 8;
    EXPECT_EQ(escalationStage(0, route), 0);
    EXPECT_EQ(escalationStage(3, route), 0);
    EXPECT_EQ(escalationStage(4, route), 1);
    EXPECT_EQ(escalationStage(8, route), 3);
    EXPECT_EQ(escalationStage(100, route), 3);

    // Timeouts in either order keep the stages distinct.
    route.adapt_timeout = 8;
    route.bfs_timeout = 4;
    EXPECT_EQ(escalationStage(4, route), 2);
    EXPECT_EQ(escalationStage(8, route), 3);
}

/**
 * A 5x5 mesh cut in two by a wall at x = 2 that owner 7 holds, plus
 * an unrelated hold by owner 8 beyond the wall.  Op 0 routes across
 * the wall, fully escalated, and always fails.
 */
class FailMemosAcrossWall : public ::testing::Test
{
  protected:
    FailMemosAcrossWall()
    {
        for (int y = 0; y <= 4; ++y)
            wall.nodes.push_back(Coord{2, y});
        mesh.claim(wall, 7);
        elsewhere.nodes.push_back(Coord{4, 3});
        elsewhere.nodes.push_back(Coord{4, 4});
        mesh.claim(elsewhere, 8);
    }

    /** Op 0's real attempt; records blockers when @p sink is set. */
    bool
    attempt(network::Blockers *sink = nullptr)
    {
        return claimer
            .tryClaim(Coord{0, 0}, Coord{4, 0}, 0, route.bfs_timeout,
                      false, sink)
            .has_value();
    }

    /** Fail op 0's attempt and memoise it at @p stock / @p stage. */
    void
    failAttempt(uint64_t stock, int stage)
    {
        ASSERT_FALSE(memos.replay(0, mesh, stock, stage));
        ASSERT_FALSE(attempt(memos.blockers()));
        memos.fail(0, mesh, FailKind::Denied);
    }

    network::Mesh mesh{5, 5};
    network::Path wall;
    network::Path elsewhere;
    RouteClaimOptions route;
    RouteClaimer claimer{mesh, route};
    FailMemos memos{1, true};
    const int stage = escalationStage(route.bfs_timeout, route);
};

TEST_F(FailMemosAcrossWall, ReleaseElsewhereStillHits)
{
    failAttempt(0, stage);
    mesh.release(elsewhere, 8);
    EXPECT_EQ(memos.replay(0, mesh, 0, stage),
              std::optional<FailKind>(FailKind::Denied));
    EXPECT_FALSE(attempt()) << "the oracle agrees";
}

TEST_F(FailMemosAcrossWall, ReleasingABlockerMisses)
{
    failAttempt(0, stage);
    mesh.release(wall, 7);
    EXPECT_FALSE(memos.replay(0, mesh, 0, stage));
    EXPECT_TRUE(attempt()) << "the oracle agrees";
}

TEST_F(FailMemosAcrossWall, StockChangeMisses)
{
    failAttempt(0, stage);
    EXPECT_FALSE(memos.replay(0, mesh, 1, stage));
}

TEST_F(FailMemosAcrossWall, StageChangeMisses)
{
    failAttempt(0, stage);
    EXPECT_FALSE(memos.replay(0, mesh, 0, escalationStage(0, route)));
}

TEST_F(FailMemosAcrossWall, ForgottenOrDisabledMemosNeverHit)
{
    failAttempt(0, stage);
    memos.forget(0);
    EXPECT_FALSE(memos.replay(0, mesh, 0, stage));

    FailMemos off(1, false);
    EXPECT_FALSE(off.replay(0, mesh, 0, stage));
    EXPECT_EQ(off.blockers(), nullptr);
    EXPECT_EQ(off.fail(0, mesh, FailKind::Starved), FailKind::Starved);
    EXPECT_FALSE(off.replay(0, mesh, 0, stage));
}

/** Every owner and release stamp of @p mesh, in resource-id order,
 *  then its release count: what a failed attempt must not move. */
std::vector<uint64_t>
meshState(const network::Mesh &mesh)
{
    std::vector<uint64_t> state;
    for (int y = 0; y < mesh.height(); ++y) {
        for (int x = 0; x < mesh.width(); ++x) {
            Coord c{x, y};
            state.push_back(static_cast<uint64_t>(mesh.nodeOwner(c)));
            for (Coord n : {Coord{x + 1, y}, Coord{x, y + 1}})
                if (mesh.contains(n))
                    state.push_back(
                        static_cast<uint64_t>(mesh.linkOwner(c, n)));
        }
    }
    for (int r = 0; r < mesh.numNodes() + mesh.numLinks(); ++r)
        state.push_back(mesh.releaseStamp(r));
    state.push_back(mesh.releaseCount());
    return state;
}

TEST(HeldEndpoint, RouteClaimerFailsAtOnceOnTheEndpoint)
{
    // Owner 7 holds one endpoint; owner 8 sits on both dimension-
    // ordered routes, so a walk would report it first.
    network::Mesh mesh(5, 5);
    network::Path busy;
    busy.nodes.push_back(Coord{2, 0});
    busy.nodes.push_back(Coord{2, 1});
    mesh.claim(busy, 8);
    network::Path spare;
    spare.nodes.push_back(Coord{0, 4});
    mesh.claim(spare, 8);
    mesh.release(spare, 8);
    RouteClaimOptions route;
    RouteClaimer claimer(mesh, route);

    for (Coord held : {Coord{4, 0}, Coord{0, 0}}) {
        network::Path end;
        end.nodes.push_back(held);
        mesh.claim(end, 7);
        std::vector<uint64_t> before = meshState(mesh);
        for (bool yx_first : {false, true}) {
            network::Blockers blockers;
            EXPECT_FALSE(claimer.tryClaim(Coord{0, 0}, Coord{4, 0}, 0,
                                          route.bfs_timeout, yx_first,
                                          &blockers));
            ASSERT_EQ(blockers.size(), 1u);
            EXPECT_EQ(blockers[0], mesh.nodeResource(held));
            EXPECT_EQ(meshState(mesh), before);
        }
        mesh.release(end, 7);
    }
    EXPECT_EQ(claimer.transposeFallbacks(), 0u);
    EXPECT_EQ(claimer.bfsDetours(), 0u);
}

TEST(HeldEndpoint, RequesterHoldingItsOwnEndpointClaims)
{
    network::Mesh mesh(5, 5);
    network::Path end;
    end.nodes.push_back(Coord{4, 0});
    mesh.claim(end, 3);
    RouteClaimOptions route;
    RouteClaimer claimer(mesh, route);
    network::Blockers blockers;
    auto path = claimer.tryClaim(Coord{0, 0}, Coord{4, 0}, 3, 0, false,
                                 &blockers);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(path->dest(), (Coord{4, 0}));
    EXPECT_TRUE(blockers.empty());
}

/**
 * A 5x3 mesh with patch terminals at (0, 1), (2, 1) and (4, 1).  A
 * chain between the first two runs along the top row.
 */
class HeldTerminal : public ::testing::Test
{
  protected:
    HeldTerminal()
    {
        for (int x : {0, 2, 4})
            claimer.reserveTerminal(Coord{x, 1});
        for (Coord c : {Coord{0, 1}, Coord{0, 0}, Coord{1, 0},
                        Coord{2, 0}, Coord{2, 1}})
            left.nodes.push_back(c);
        for (Coord c : {Coord{2, 1}, Coord{2, 2}, Coord{3, 2},
                        Coord{4, 2}, Coord{4, 1}})
            right.nodes.push_back(c);
    }

    network::Mesh mesh{5, 3};
    RouteClaimOptions route;
    ChainClaimer claimer{mesh, route};
    network::Path left;  ///< (0, 1) to (2, 1).
    network::Path right; ///< (2, 1) to (4, 1).
};

TEST_F(HeldTerminal, ChainClaimerFailsAtOnceOnTheTerminal)
{
    // Op 5's chain holds the terminal at (2, 1).
    auto held = claimer.tryClaim(left, left, 5, 0);
    ASSERT_TRUE(held.has_value());
    std::vector<uint64_t> before = meshState(mesh);

    network::Blockers blockers;
    EXPECT_TRUE(claimer.endpointHeld(Coord{2, 1}, Coord{4, 1}, 0,
                                     &blockers));
    ASSERT_EQ(blockers.size(), 1u);
    EXPECT_EQ(blockers[0], mesh.nodeResource(Coord{2, 1}));

    blockers.clear();
    EXPECT_FALSE(
        claimer.tryClaim(right, right, 0, route.bfs_timeout, &blockers));
    ASSERT_EQ(blockers.size(), 1u);
    EXPECT_EQ(blockers[0], mesh.nodeResource(Coord{2, 1}));
    EXPECT_EQ(meshState(mesh), before);
    EXPECT_EQ(claimer.transposeFallbacks(), 0u);
    EXPECT_EQ(claimer.bfsDetours(), 0u);

    // Once op 5's chain releases it, op 0's chain is granted.
    claimer.release(*held, 5);
    blockers.clear();
    EXPECT_TRUE(claimer.tryClaim(right, right, 0, 0, &blockers));
    EXPECT_TRUE(blockers.empty());
}

TEST_F(HeldTerminal, OwnReservationIsNotAHolder)
{
    // Both terminals are held by their own reservations only: the
    // chain is claimed, as ever.
    network::Blockers blockers;
    EXPECT_FALSE(claimer.endpointHeld(Coord{2, 1}, Coord{4, 1}, 0,
                                      &blockers));
    auto chain = claimer.tryClaim(right, right, 0, 0, &blockers);
    ASSERT_TRUE(chain.has_value());
    EXPECT_TRUE(blockers.empty());
    EXPECT_EQ(mesh.nodeOwner(Coord{2, 1}), 0);
    EXPECT_EQ(mesh.nodeOwner(Coord{4, 1}), 0);
}

/**
 * FailMemosAcrossWall's shape with the destination held: owner 7
 * holds (4, 0), owner 8 a router on the XY route, owner 9 a pair
 * elsewhere.  Op 0 routes (0, 0) -> (4, 0), fully escalated.
 */
class FailMemosHeldDestination : public ::testing::Test
{
  protected:
    FailMemosHeldDestination()
    {
        dst.nodes.push_back(Coord{4, 0});
        mesh.claim(dst, 7);
        on_route.nodes.push_back(Coord{2, 0});
        mesh.claim(on_route, 8);
        elsewhere.nodes.push_back(Coord{1, 3});
        elsewhere.nodes.push_back(Coord{1, 4});
        mesh.claim(elsewhere, 9);
    }

    /** Op 0's real attempt, outside the memo. */
    bool
    attempt()
    {
        return claimer
            .tryClaim(Coord{0, 0}, Coord{4, 0}, 0, route.bfs_timeout,
                      false)
            .has_value();
    }

    network::Mesh mesh{5, 5};
    network::Path dst;
    network::Path on_route;
    network::Path elsewhere;
    RouteClaimOptions route;
    RouteClaimer claimer{mesh, route};
    FailMemos memos{1, true};
    const int stage = escalationStage(route.bfs_timeout, route);
};

TEST_F(FailMemosHeldDestination, ReplaysUntilTheEndpointIsReleased)
{
    const std::optional<FailKind> denied(FailKind::Denied);
    ASSERT_FALSE(memos.replay(0, mesh, 0, stage));
    network::Blockers *sink = memos.blockers();
    ASSERT_FALSE(claimer
                     .tryClaim(Coord{0, 0}, Coord{4, 0}, 0,
                               route.bfs_timeout, false, sink)
                     .has_value());
    memos.fail(0, mesh, FailKind::Denied);

    mesh.release(on_route, 8);
    EXPECT_EQ(memos.replay(0, mesh, 0, stage), denied)
        << "the XY route is free, but the endpoint is not";
    EXPECT_FALSE(attempt()) << "the oracle agrees";

    mesh.release(elsewhere, 9);
    EXPECT_EQ(memos.replay(0, mesh, 0, stage), denied);
    EXPECT_FALSE(attempt()) << "the oracle agrees";

    mesh.release(dst, 7);
    EXPECT_FALSE(memos.replay(0, mesh, 0, stage));
    EXPECT_TRUE(attempt()) << "the oracle agrees";
}

TEST(FailMemos, SuspendedTerminalsStayBlocked)
{
    // A 5x1 line of patch terminals at x = 0, 2, 4.  Op 0's chain
    // from 0 to 4 must pass through the reserved terminal at 2.
    network::Mesh mesh(5, 1);
    RouteClaimOptions route;
    ChainClaimer claimer(mesh, route);
    for (int x : {0, 2, 4})
        claimer.reserveTerminal(Coord{x, 0});
    network::Path across;
    for (int x = 0; x <= 4; ++x)
        across.nodes.push_back(Coord{x, 0});
    network::Path right;
    for (int x = 2; x <= 4; ++x)
        right.nodes.push_back(Coord{x, 0});

    FailMemos memos(2, true);
    int stage = escalationStage(route.bfs_timeout, route);
    ASSERT_FALSE(memos.replay(0, mesh, 0, stage));
    ASSERT_FALSE(claimer.tryClaim(across, across, 0, route.bfs_timeout,
                                  memos.blockers()));
    memos.fail(0, mesh, FailKind::Denied);

    // Op 1 merges 2 and 4: its claim suspends the terminal at 2,
    // which is not a release.
    network::Path busy;
    busy.nodes.push_back(Coord{3, 0});
    mesh.claim(busy, 9);
    EXPECT_FALSE(claimer.tryClaim(right, right, 1, 0));
    mesh.release(busy, 9);
    EXPECT_EQ(memos.replay(0, mesh, 0, stage),
              std::optional<FailKind>(FailKind::Denied));
    auto chain = claimer.tryClaim(right, right, 1, 0);
    ASSERT_TRUE(chain.has_value());
    EXPECT_EQ(memos.replay(0, mesh, 0, stage),
              std::optional<FailKind>(FailKind::Denied));

    // Op 1's chain completing does release the terminal.
    claimer.release(*chain, 1);
    EXPECT_FALSE(memos.replay(0, mesh, 0, stage));
    EXPECT_FALSE(claimer.tryClaim(across, across, 0, route.bfs_timeout))
        << "re-reserved, so the oracle still fails";
}

} // namespace
} // namespace qsurf::engine
