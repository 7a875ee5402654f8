/**
 * @file
 * Fault-tolerance tests of the sharded sweep fleet: a worker
 * SIGKILLed mid-sweep must cost wall clock, never rows — the merged
 * results stay byte-identical to a single-process run whether its
 * requeued points land on a respawned worker or a survivor, and the
 * same holds when workers are remote TCP processes instead of forked
 * locals.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/apps.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/shard.h"
#include "service/wire.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

/** A grid big enough that killing a worker mid-sweep leaves points
 *  to reassign, small enough for a unit test: 2 apps x 3 distances
 *  x 2 objectives = 12 points, six 2-point chunks. */
engine::SweepGrid
faultGrid()
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::GSE, {8, 2}, ""}};
    grid.backends = {engine::backends::surgery_sim};
    grid.distances = {3, 5, 7};
    grid.layout_objectives = {0, 2};
    grid.base.seed = 21;
    return grid;
}

std::string
singleProcessRows(const engine::SweepGrid &grid)
{
    engine::SweepOptions opts;
    opts.num_threads = 1;
    return engine::canonicalSweepRows(
        engine::SweepDriver().run(grid, opts));
}

TEST(ShardFault, KilledWorkerIsRespawnedAndRowsStayIdentical)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 1;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    // SIGKILL the only worker when its second row arrives: no
    // survivor exists, so recovery must fork a replacement.
    shard.fault_kill_worker = 0;
    shard.fault_kill_after_rows = 2;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_EQ(stats.worker_restarts, 1u);
    EXPECT_GE(stats.points_reassigned, 1u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, TwoWorkerFleetSurvivesAKillEitherWay)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    shard.fault_kill_worker = 1;
    shard.fault_kill_after_rows = 2;

    // Whether the requeued points land on a respawn or on the
    // survivor depends on who is idle at death time; the rows must
    // be byte-identical either way.
    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_LE(stats.worker_restarts, 1u);
    EXPECT_GE(stats.points_reassigned, 1u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, RestartsExhaustedSurvivorAbsorbsTheSlice)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    shard.fault_kill_worker = 1;
    shard.fault_kill_after_rows = 2;
    // No respawn budget: the requeued points must wait for the
    // surviving worker to finish its own chunk and pull them.
    shard.max_worker_restarts = 0;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.worker_restarts, 0u);
    EXPECT_GE(stats.reassignments, 1u);
}

TEST(ShardFault, LocalTcpTransportMatchesSocketpairRows)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.local_tcp = true;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
}

TEST(ShardFault, RemoteTcpWorkerReceivesGridOverTheWire)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    // A "remote" worker: a process that shares no grid memory with
    // the parent (fork before any assignment, grid decoded off the
    // wire by serveSweepWorker).  The listener is created pre-fork
    // so the port is known to both sides.
    wire::TcpListener listener("127.0.0.1:0");
    std::string spec =
        "127.0.0.1:" + std::to_string(listener.port());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int fd = listener.accept();
        if (fd < 0)
            ::_exit(2);
        service::SweepWorkerEnv env; // env.grid == nullptr.
        env.base.num_threads = 1;
        bool orderly = service::serveSweepWorker(fd, env);
        ::close(fd);
        ::_exit(orderly ? 0 : 1);
    }

    service::ShardOptions shard;
    shard.workers = 1;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.remote_workers = {spec};

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "remote worker exit status " << status;
}

TEST(ShardFault, DeadRemoteWorkerIsRedialedAndRejoins)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    // A remote worker that drops its first connection cold (the
    // parent sees EOF and requeues its chunk), then accepts again and
    // serves properly — what a crashed-and-restarted process on the
    // same address looks like.  The listener survives pre-fork so
    // both connections land on the same spec.
    wire::TcpListener listener("127.0.0.1:0");
    std::string spec =
        "127.0.0.1:" + std::to_string(listener.port());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Watchdog: if the parent dies before the second dial, the
        // child must not sit in accept() holding the test's pipes.
        ::alarm(120);
        int first = listener.accept();
        if (first < 0)
            ::_exit(2);
        ::close(first);
        int fd = listener.accept();
        if (fd < 0)
            ::_exit(2);
        service::SweepWorkerEnv env; // env.grid == nullptr.
        env.base.num_threads = 1;
        bool orderly = service::serveSweepWorker(fd, env);
        ::close(fd);
        ::_exit(orderly ? 0 : 1);
    }

    service::FleetStats stats;
    service::ShardOptions shard;
    // No locals and no respawn budget: the requeued chunk can only
    // finish if the redial probe puts the remote back in the fleet.
    shard.workers = 0;
    shard.max_worker_restarts = 0;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.remote_workers = {spec};
    shard.remote_redial_interval_sec = 1;
    shard.stats = &stats;

    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    EXPECT_TRUE(stats.degraded);
    EXPECT_GE(stats.worker_failures, 1u);
    EXPECT_EQ(stats.remote_redials, 1u);
    EXPECT_EQ(stats.worker_restarts, 0u);
    EXPECT_GE(stats.points_reassigned, 1u);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "remote worker exit status " << status;
}

/** Serve one ShardAssign with @p payload to a worker on a
 *  socketpair and @return the frames it answers with, up to Done or
 *  Error; @p orderly gets serveSweepWorker's verdict. */
std::vector<wire::Frame>
assignOnce(const engine::SweepGrid &grid, const std::string &payload,
           bool &orderly)
{
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread worker([&] {
        service::SweepWorkerEnv env;
        env.grid = &grid;
        env.base.num_threads = 1;
        orderly = service::serveSweepWorker(fds[1], env);
        ::close(fds[1]);
    });
    std::vector<wire::Frame> got;
    wire::Frame hello;
    EXPECT_TRUE(wire::readFrame(fds[0], hello).ok());
    EXPECT_EQ(hello.type, wire::FrameType::Hello);
    EXPECT_TRUE(wire::writeFrame(fds[0], wire::FrameType::ShardAssign,
                                 payload)
                    .ok());
    for (;;) {
        wire::Frame f;
        if (!wire::readFrame(fds[0], f).ok())
            break;
        got.push_back(f);
        if (f.type == wire::FrameType::Done
            || f.type == wire::FrameType::Error) {
            wire::writeFrame(fds[0], wire::FrameType::Shutdown, "");
            break;
        }
    }
    // Closing first unblocks a worker still waiting for a frame.
    ::close(fds[0]);
    worker.join();
    return got;
}

std::string
assignment(const std::string &points, const std::string &indices)
{
    return "{\"points\": " + points + ", \"indices\": [" + indices
        + "]}";
}

TEST(ShardAssign, HostileAssignmentsFailCleanly)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    ASSERT_EQ(grid.points(), 12u);
    // Each of these must come back as an Error frame: no cast of a
    // negative, fractional or huge double, and no vector sized by it.
    const std::vector<std::string> hostile = {
        assignment("-1", "0"),
        assignment("1e19", "0"),
        assignment("2.5", "0"),
        assignment("13", "0"),
        assignment("4000000000", "0"),
        assignment("12", "-1"),
        assignment("12", "1e19"),
        assignment("12", "2.5"),
        assignment("12", "12"),
        assignment("12", "4000000000"),
    };
    for (const std::string &payload : hostile) {
        bool orderly = true;
        std::vector<wire::Frame> got = assignOnce(grid, payload, orderly);
        ASSERT_EQ(got.size(), 1u) << payload;
        EXPECT_EQ(got[0].type, wire::FrameType::Error) << payload;
        EXPECT_FALSE(orderly) << payload;
    }

    // A legal index runs its point once, repeated or not.
    for (const char *indices : {"3", "3, 3"}) {
        bool orderly = false;
        std::vector<wire::Frame> got =
            assignOnce(grid, assignment("12", indices), orderly);
        ASSERT_EQ(got.size(), 2u) << indices;
        EXPECT_EQ(got[0].type, wire::FrameType::Row);
        EXPECT_EQ(engine::parseSweepRowLine(got[0].payload).index, 3u);
        EXPECT_EQ(got[1].type, wire::FrameType::Done);
        EXPECT_TRUE(orderly);
    }
}

TEST(ShardFleet, BusyTimeCoversEveryMergedRow)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);

    // Both workers pull a chunk before either can finish one, and
    // every merged row is charged to exactly one slot.
    ASSERT_EQ(stats.worker_busy_s.size(), 2u);
    double rows_s = 0;
    for (const engine::SweepPoint &p : merged)
        rows_s += (p.prepare_ms + p.wall_ms) / 1e3;
    double slots_s = 0;
    for (double busy : stats.worker_busy_s) {
        EXPECT_GT(busy, 0.0);
        slots_s += busy;
    }
    EXPECT_NEAR(slots_s, rows_s, 1e-9 * rows_s);
}

TEST(ShardFleet, OneBlockGridReachesEveryWorker)
{
    setQuiet(true);
    // One (app, size, distance) block of 4 points: fewer blocks than
    // twice the fleet width, so the queue holds single points and
    // each worker pulls one before either can finish.
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {engine::backends::surgery_sim,
                     engine::backends::hybrid_mixed};
    grid.distances = {5};
    grid.layout_objectives = {0, 2};
    grid.base.seed = 21;
    ASSERT_EQ(grid.points(), 4u);
    std::string expected = singleProcessRows(grid);

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.stats = &stats;
    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);
    ASSERT_EQ(stats.worker_busy_s.size(), 2u);
    EXPECT_GT(stats.worker_busy_s[0], 0.0);
    EXPECT_GT(stats.worker_busy_s[1], 0.0);
}

TEST(ShardFleet, HelloThreadCountSetsAssignmentsInFlight)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    // A remote peer that announces 3 threads: it must be handed 3
    // chunks (one before its Hello lands, two after) and no more
    // while it answers none.  It exits with the number of indices it
    // got and drops the connection; a respawned local finishes the
    // sweep.
    wire::TcpListener listener("127.0.0.1:0");
    std::string spec =
        "127.0.0.1:" + std::to_string(listener.port());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(120);
        int fd = listener.accept();
        if (fd < 0)
            ::_exit(100);
        if (!wire::writeFrame(fd, wire::FrameType::Hello,
                              "{\"service\": \"qsurf-sweep-worker\", "
                              "\"threads\": 3}")
                 .ok())
            ::_exit(101);
        std::set<uint64_t> ids;
        size_t indices = 0;
        for (int k = 0; k < 3; ++k) {
            wire::Frame frame;
            if (!wire::readFrame(fd, frame).ok()
                || frame.type != wire::FrameType::ShardAssign)
                ::_exit(101);
            try {
                JsonValue doc = parseJson(frame.payload);
                const JsonValue *id = doc.find("id");
                const JsonValue *points = doc.find("indices");
                if (!doc.find("grid") || !id || !points)
                    ::_exit(102);
                ids.insert(id->toUint("test", "id"));
                indices += points->items.size();
            } catch (...) {
                ::_exit(102);
            }
        }
        pollfd extra{fd, POLLIN, 0};
        if (::poll(&extra, 1, 300) != 0)
            ::_exit(103);
        ::_exit(ids.size() == 3 ? static_cast<int>(indices) : 104);
    }

    service::FleetStats stats;
    service::ShardOptions shard;
    shard.workers = 0;
    shard.sweep.num_threads = 1;
    shard.idle_timeout_sec = 120;
    shard.remote_workers = {spec};
    shard.stats = &stats;
    std::vector<engine::SweepPoint> merged =
        service::runShardedSweep(grid, shard);
    EXPECT_EQ(engine::canonicalSweepRows(merged), expected);

    // Three 2-point chunks, each put back on the queue by itself.
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << status;
    EXPECT_EQ(WEXITSTATUS(status), 6);
    EXPECT_EQ(stats.points_reassigned, 6u);
    EXPECT_EQ(stats.reassignments, 3u);
    EXPECT_EQ(stats.worker_restarts, 1u);
}

TEST(ShardFleet, MultiThreadWorkersMatchSingleProcess)
{
    setQuiet(true);
    engine::SweepGrid grid = faultGrid();
    std::string expected = singleProcessRows(grid);

    // Each worker runs 3 chunks side by side; rows from its threads
    // share one connection and must still merge exactly, with a kill
    // orphaning whatever its threads had open.
    for (int kill : {-1, 0}) {
        service::FleetStats stats;
        service::ShardOptions shard;
        shard.workers = 2;
        shard.sweep.num_threads = 3;
        shard.idle_timeout_sec = 120;
        shard.stats = &stats;
        shard.fault_kill_worker = kill;
        shard.fault_kill_after_rows = 1;
        std::vector<engine::SweepPoint> merged =
            service::runShardedSweep(grid, shard);
        EXPECT_EQ(engine::canonicalSweepRows(merged), expected)
            << "kill " << kill;
        EXPECT_EQ(stats.degraded, kill >= 0);
        if (kill >= 0) {
            EXPECT_GE(stats.points_reassigned, 1u);
        }
    }
}

} // namespace
} // namespace qsurf
