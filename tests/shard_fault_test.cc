/**
 * @file
 * Fault-tolerance tests of the sharded sweep fleet: a worker
 * SIGKILLed mid-sweep must cost wall clock, never rows — the merged
 * results stay byte-identical to a single-process run whether the
 * orphaned slice lands on a respawned worker or a survivor, and the
 * same holds when workers are remote TCP processes instead of forked
 * locals.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/apps.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/shard.h"
#include "service/wire.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

/** A grid big enough that killing a worker mid-slice leaves points
 *  to reassign, small enough for a unit test: 2 apps x 3 distances
 *  x 2 objectives = 12 points. */
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
    // SIGKILL the only worker right after its second row lands: no
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

    // Whether the orphaned slice lands on a respawn or on the
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
    // No respawn budget: the orphaned slice must wait for the
    // surviving worker to finish its own slice and pick it up.
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
    // parent sees EOF and orphans the slice), then accepts again and
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
    // No locals and no respawn budget: the orphaned slice can only
    // finish if the redial probe puts the remote back in rotation.
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
assignment(const std::string &workers, const std::string &points,
           const std::string &residues)
{
    return "{\"worker\": 0, \"workers\": " + workers
        + ", \"points\": " + points + ", \"residues\": [" + residues
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
        assignment("-1", "12", "0"),
        assignment("1e19", "12", "0"),
        assignment("2.5", "12", "0"),
        assignment("0", "12", "0"),
        assignment("2", "-1", "0"),
        assignment("2", "1e19", "0"),
        assignment("2", "2.5", "0"),
        assignment("2", "13", "0"),
        assignment("2", "4000000000", "0"),
        assignment("2", "12", "-1"),
        assignment("2", "12", "1e19"),
        assignment("2", "12", "2.5"),
        assignment("2", "12", "2"),
    };
    for (const std::string &payload : hostile) {
        bool orderly = true;
        std::vector<wire::Frame> got = assignOnce(grid, payload, orderly);
        ASSERT_EQ(got.size(), 1u) << payload;
        EXPECT_EQ(got[0].type, wire::FrameType::Error) << payload;
        EXPECT_FALSE(orderly) << payload;
    }

    // A fleet far wider than the grid is legal and allocates nothing
    // by its width: residue 0 owns point 0 alone.
    bool orderly = false;
    std::vector<wire::Frame> got =
        assignOnce(grid, assignment("2147483647", "12", "0"), orderly);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, wire::FrameType::Row);
    EXPECT_EQ(got[1].type, wire::FrameType::Done);
    EXPECT_TRUE(orderly);
}

} // namespace
} // namespace qsurf
