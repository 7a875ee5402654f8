#include "service/shard.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "service/wire.h"

namespace qsurf::service {

namespace {

using engine::SweepGrid;
using engine::SweepOptions;
using engine::SweepPoint;

std::string
jsonError(const std::string &message)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("error", message);
    j.endObject();
    return os.str();
}

/** Threads a worker running @p opts computes with, one assignment
 *  each; its Hello announces the count. */
size_t
workerThreads(const SweepOptions &opts)
{
    return static_cast<size_t>(opts.num_threads >= 1
                                   ? opts.num_threads
                                   : engine::defaultThreads());
}

/**
 * Forked-child body: serve the sweep-worker protocol on @p fd, then
 * _exit without returning to the caller's stack (a forked child must
 * not run the parent's destructors or flush its inherited stdio
 * buffers).  Exit 0 means an orderly Shutdown; 1 means the parent
 * vanished or an assignment failed.
 */
[[noreturn]] void
workerMain(int fd, const SweepGrid &grid,
           const engine::Registry &registry, const SweepOptions &base,
           int slot)
{
    bool clean = false;
    try {
        SweepWorkerEnv env;
        env.grid = &grid;
        env.base = base;
        env.slot = slot;
        env.registry = &registry;
        clean = serveSweepWorker(fd, env);
    } catch (...) {
        // serveSweepWorker already reported what it could.
    }
    ::_exit(clean ? 0 : 1);
}

struct WorkerProc
{
    pid_t pid = -1; ///< -1 for remote workers (not our child).
    int fd = -1;
    int slot = -1;     ///< Fleet slot (>= width for respawns).
    bool remote = false;
    bool dead = false;
    /** Assignments it runs at once: its thread count, which a
     *  remote's Hello names (1 until that arrives). */
    size_t threads = 1;
    std::string spec;  ///< Remote "host:port" (diagnostics).
    std::string buf;   ///< Undecoded bytes read so far.
    /** Open assignments by id: the points it owes rows and a Done
     *  for. */
    std::map<uint64_t, std::vector<size_t>> assigned;
    uint64_t merged_rows = 0;  ///< Its rows the parent has merged.
    double busy_s = 0;         ///< Their prepare + run time.
    std::chrono::steady_clock::time_point last_frame;
};

/** Kill and reap whatever the fleet still has running; safe to call
 *  after a partial or failed launch. */
void
killFleet(std::vector<WorkerProc> &fleet)
{
    for (WorkerProc &w : fleet) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pid > 0)
            ::kill(w.pid, SIGKILL);
    }
    for (WorkerProc &w : fleet) {
        if (w.pid > 0) {
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            w.pid = -1;
        }
    }
}

/** RAII backstop: any exception out of the parent loop tears the
 *  fleet down instead of leaking live children. */
struct FleetGuard
{
    std::vector<WorkerProc> &fleet;
    bool armed = true;

    ~FleetGuard()
    {
        if (armed)
            killFleet(fleet);
    }
};

} // namespace

bool
serveSweepWorker(int fd, const SweepWorkerEnv &env)
{
    const engine::Registry &registry =
        env.registry ? *env.registry : engine::Registry::global();
    size_t threads = workerThreads(env.base);

    {
        std::ostringstream os;
        JsonWriter j(os, /*compact=*/true);
        j.beginObject();
        j.field("service", "qsurf-sweep-worker");
        j.field("version", static_cast<uint64_t>(wire::kVersion));
        j.field("slot", env.slot);
        j.field("threads", static_cast<uint64_t>(threads));
        j.endObject();
        if (!wire::writeFrame(fd, wire::FrameType::Hello, os.str())
                 .ok())
            return false;
    }

    // The grid: inherited memory for forked workers, decoded off the
    // first ShardAssign for remote ones and kept (later copies are
    // ignored; the fingerprint check below still covers them).
    SweepGrid decoded;
    const SweepGrid *grid = env.grid;
    uint64_t grid_fp = grid ? engine::sweepGridFingerprint(*grid) : 0;

    // `threads` threads take turns reading the connection: whichever
    // is free reads the next assignment and runs it itself, so a slow
    // point holds up only its own thread, and one thread is simply a
    // read-run loop on the caller's thread.  Frames from different
    // threads never interleave.
    std::mutex read_mutex;
    bool closing = false; // Guarded by read_mutex.
    bool orderly = false; // Guarded by read_mutex.
    std::mutex write_mutex;
    // Set once a write fails (the parent vanished) or an assignment
    // fails: threads skip their remaining points instead of computing
    // rows nobody will read.
    std::atomic<bool> failed{false};
    auto send = [&](wire::FrameType type, const std::string &payload) {
        std::lock_guard<std::mutex> lock(write_mutex);
        if (failed.load())
            return false;
        if (wire::writeFrame(fd, type, payload).ok())
            return true;
        failed.store(true);
        return false;
    };
    auto fail = [&](const std::string &message) {
        send(wire::FrameType::Error, jsonError(message));
        failed.store(true);
    };

    /** Read and decode the next assignment into @p selected / @p id;
     *  @return false when this connection is finished.  Runs under
     *  read_mutex, so only one thread touches the grid. */
    auto nextAssignment = [&](std::vector<uint8_t> &selected,
                              uint64_t &id) {
        wire::Frame frame;
        if (!wire::readFrame(fd, frame).ok()) {
            failed.store(true); // Parent vanished (or sent garbage).
            return false;
        }
        if (frame.type == wire::FrameType::Shutdown) {
            orderly = true;
            return false;
        }
        if (failed.load())
            return false;
        if (frame.type != wire::FrameType::ShardAssign) {
            fail(std::string("expected ShardAssign, got ")
                 + wire::frameTypeName(frame.type));
            return false;
        }
        try {
            JsonValue doc = parseJson(frame.payload);
            if (!grid) {
                const JsonValue *g = doc.find("grid");
                fatalIf(!g || !g->isString(),
                        "ShardAssign carries no grid and none was "
                        "inherited");
                decoded = wire::decodeSweepGrid(g->str);
                grid = &decoded;
                grid_fp = engine::sweepGridFingerprint(decoded);
            }
            const JsonValue *points = doc.find("points");
            const JsonValue *indices = doc.find("indices");
            fatalIf(!points || !indices || !indices->isArray(),
                    "malformed ShardAssign payload");
            // Everything below is sized by this worker's own grid,
            // never by a number off the wire.
            size_t total = grid->points();
            uint64_t claimed = points->toUint("ShardAssign", "points");
            fatalIf(claimed != total, "ShardAssign counts ", claimed,
                    " points; this worker's grid has ", total);
            // A repeated index runs once.
            selected.assign(total, 0);
            for (const JsonValue &iv : indices->items) {
                uint64_t i = iv.toUint("ShardAssign", "index");
                fatalIf(i >= total, "ShardAssign names index ", i,
                        ", outside this worker's ", total,
                        "-point grid");
                selected[i] = 1;
            }
            const JsonValue *id_field = doc.find("id");
            id = id_field ? id_field->toUint("ShardAssign", "id") : 0;
            // The assignment names what it believes this worker is
            // running; a mismatch means the processes disagree about
            // the experiment (codec drift, stale remote binary).
            const JsonValue *fp = doc.find("grid_fingerprint");
            fatalIf(fp
                        && fp->toUint("ShardAssign", "grid_fingerprint")
                            != grid_fp,
                    "ShardAssign grid fingerprint does not match "
                    "this worker's grid");
        } catch (const std::exception &e) {
            fail(e.what());
            return false;
        }
        return true;
    };

    auto run = [&](const std::vector<uint8_t> &selected, uint64_t id) {
        uint64_t rows = 0;
        SweepOptions opts = env.base;
        opts.num_threads = 1;
        opts.json_path.clear();
        opts.rows_path.clear();
        opts.stream_rows = false;
        opts.resume = false;
        opts.trace = nullptr;
        opts.metrics = nullptr;
        opts.heap_alloc_counter = nullptr;
        opts.point_filter = [&](size_t i) {
            return !failed.load(std::memory_order_relaxed)
                && selected[i];
        };
        opts.on_row = [&](const SweepPoint &, std::string_view line) {
            if (send(wire::FrameType::Row, std::string(line)))
                ++rows;
        };
        try {
            engine::SweepDriver(registry).run(*grid, opts);
        } catch (const std::exception &e) {
            fail(e.what());
            return;
        }
        std::ostringstream os;
        JsonWriter j(os, /*compact=*/true);
        j.beginObject();
        j.field("id", id);
        j.field("rows", rows);
        j.endObject();
        send(wire::FrameType::Done, os.str());
    };

    auto serve = [&] {
        std::vector<uint8_t> selected;
        uint64_t id = 0;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(read_mutex);
                if (closing || failed.load()
                    || !nextAssignment(selected, id)) {
                    closing = true;
                    return;
                }
            }
            run(selected, id);
        }
    };
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < threads; ++t)
        helpers.emplace_back(serve);
    serve();
    for (std::thread &t : helpers)
        t.join();
    return orderly && !failed.load();
}

std::vector<SweepPoint>
runShardedSweep(const SweepGrid &grid, const ShardOptions &opts,
                const engine::Registry &registry)
{
    auto n_local = static_cast<size_t>(std::max(0, opts.workers));
    size_t n_remote = opts.remote_workers.size();
    size_t width = n_local + n_remote;
    fatalIf(opts.workers < 0, "sharded sweep needs >= 0 local "
                              "workers, got ",
            opts.workers);
    fatalIf(width == 0,
            "sharded sweep needs >= 1 worker (local or remote)");
    fatalIf(static_cast<bool>(opts.sweep.point_filter)
                || static_cast<bool>(opts.sweep.on_row)
                || opts.sweep.trace != nullptr
                || opts.sweep.metrics != nullptr
                || static_cast<bool>(opts.sweep.heap_alloc_counter),
            "sharded sweeps cannot forward point_filter / on_row / "
            "trace / metrics / heap_alloc_counter into workers");

    FleetStats stats;
    auto finalize = [&] {
        obs::MetricsRegistry &mreg = obs::MetricsRegistry::global();
        if (stats.worker_restarts)
            mreg.inc("service.shard.worker_restarts",
                     stats.worker_restarts);
        if (stats.points_reassigned)
            mreg.inc("service.shard.points_reassigned",
                     stats.points_reassigned);
        if (stats.connect_retries)
            mreg.inc("service.shard.connect_retries",
                     stats.connect_retries);
        if (stats.remote_redials)
            mreg.inc("service.shard.remote_redials",
                     stats.remote_redials);
        if (opts.stats)
            *opts.stats = stats;
    };

    // Remote workers share no memory: the grid crosses the wire as
    // JSON.  Encoding up front also rejects caller-built circuits
    // (not representable) before any process is spawned.
    std::string grid_json;
    if (n_remote > 0)
        grid_json = wire::encodeSweepGrid(grid);

    std::vector<SweepPoint> points =
        engine::expandSweepPoints(grid, registry);
    std::vector<uint8_t> done(points.size(), 0);

    std::string rows_path;
    if (opts.sweep.stream_rows) {
        rows_path = !opts.sweep.rows_path.empty()
            ? opts.sweep.rows_path
            : (!opts.sweep.json_path.empty()
                   ? opts.sweep.json_path + ".rows"
                   : std::string());
    }
    size_t resumed = 0;
    size_t rows_valid_bytes = 0;
    if (opts.sweep.resume && !rows_path.empty()) {
        resumed = engine::loadSweepRows(rows_path, grid,
                                        opts.sweep.title, points,
                                        done, &rows_valid_bytes);
        if (resumed)
            inform("resuming sharded sweep: ", resumed, " of ",
                   points.size(), " points from '", rows_path, "'");
    }
    size_t remaining = 0;
    for (uint8_t d : done)
        if (!d)
            ++remaining;

    std::ofstream rows_stream;
    if (!rows_path.empty()) {
        if (resumed) {
            // Drop any torn tail before appending (see the
            // single-process driver for the rationale).
            std::error_code ec;
            std::filesystem::resize_file(rows_path,
                                         rows_valid_bytes, ec);
            fatalIf(static_cast<bool>(ec), "cannot truncate '",
                    rows_path, "': ", ec.message());
        }
        rows_stream.open(rows_path, resumed ? std::ios::app
                                            : std::ios::trunc);
        fatalIf(!rows_stream, "cannot open '", rows_path,
                "' for writing");
        if (!resumed) {
            engine::writeSweepRowsHeader(rows_stream, grid,
                                         opts.sweep.title);
            rows_stream << "\n";
        }
        rows_stream.flush();
    }

    if (remaining == 0) {
        // Everything resumed off disk; no fleet to run.
        if (!opts.sweep.json_path.empty()) {
            std::ofstream os(opts.sweep.json_path);
            fatalIf(!os, "cannot open '", opts.sweep.json_path,
                    "' for writing");
            engine::writeSweepJson(os, opts.sweep.title, points);
        }
        finalize();
        return points;
    }

    // The queue of chunks: runs of consecutive indices sharing the
    // grid's three outermost axes (app, size, distance).  An (app,
    // size) block shares its prepare artifacts; chunks split it by
    // distance for balance.  With fewer such runs than twice the
    // fleet width, points go out one at a time, so every worker
    // gets work.
    size_t blocks =
        grid.apps.size() * grid.sizes.size() * grid.distances.size();
    size_t chunk_len =
        blocks < 2 * width ? 1 : points.size() / blocks;
    std::deque<std::vector<size_t>> queue;
    for (size_t first = 0; first < points.size(); first += chunk_len) {
        std::vector<size_t> chunk;
        for (size_t i = first; i < first + chunk_len; ++i)
            if (!done[i])
                chunk.push_back(i);
        if (!chunk.empty())
            queue.push_back(std::move(chunk));
    }

    uint64_t grid_fp = engine::sweepGridFingerprint(grid);
    size_t local_threads = workerThreads(opts.sweep);
    std::vector<WorkerProc> fleet;
    fleet.reserve(width);
    FleetGuard guard{fleet};

    auto spawnLocal = [&](int slot) {
        int sv[2];
        fatalIf(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0,
                "socketpair() failed: ", std::strerror(errno));
        pid_t pid = ::fork();
        fatalIf(pid < 0, "fork() failed: ", std::strerror(errno));
        if (pid == 0) {
            // Child: keep only its own socket end.
            ::close(sv[0]);
            for (const WorkerProc &other : fleet)
                if (other.fd >= 0)
                    ::close(other.fd);
            workerMain(sv[1], grid, registry, opts.sweep, slot);
        }
        ::close(sv[1]);
        WorkerProc w;
        w.pid = pid;
        w.fd = sv[0];
        w.slot = slot;
        w.threads = local_threads;
        w.last_frame = std::chrono::steady_clock::now();
        fleet.push_back(std::move(w));
        ++stats.workers_started;
    };

    if (opts.local_tcp && n_local > 0) {
        // Same forked processes, but the bytes cross real TCP: the
        // parent listens on an ephemeral loopback port, the children
        // dial back, and the Hello's slot field maps each accepted
        // connection to its worker.
        wire::TcpListener listener("127.0.0.1:0");
        std::string spec =
            "127.0.0.1:" + std::to_string(listener.port());
        for (size_t k = 0; k < n_local; ++k) {
            pid_t pid = ::fork();
            fatalIf(pid < 0,
                    "fork() failed: ", std::strerror(errno));
            if (pid == 0) {
                int cfd = wire::connectWithRetry(spec);
                if (cfd < 0)
                    ::_exit(1);
                workerMain(cfd, grid, registry, opts.sweep,
                           static_cast<int>(k));
            }
            WorkerProc w;
            w.pid = pid;
            w.slot = static_cast<int>(k);
            w.threads = local_threads;
            w.last_frame = std::chrono::steady_clock::now();
            fleet.push_back(std::move(w));
            ++stats.workers_started;
        }
        for (size_t k = 0; k < n_local; ++k) {
            int cfd = listener.accept();
            fatalIf(cfd < 0, "tcp accept() failed while the worker "
                             "fleet connected");
            wire::Frame hello;
            wire::IoResult r = wire::readFrame(cfd, hello);
            fatalIf(!r.ok() || hello.type != wire::FrameType::Hello,
                    "tcp worker connected without a Hello");
            JsonValue doc = parseJson(hello.payload);
            const JsonValue *slot = doc.find("slot");
            fatalIf(!slot, "tcp worker Hello names no slot");
            int s = slot->toInt("tcp worker Hello", "slot");
            fatalIf(s < 0 || static_cast<size_t>(s) >= n_local
                        || fleet[static_cast<size_t>(s)].fd >= 0,
                    "tcp worker Hello names bogus slot ", s);
            fleet[static_cast<size_t>(s)].fd = cfd;
        }
    } else {
        for (size_t k = 0; k < n_local; ++k)
            spawnLocal(static_cast<int>(k));
    }
    for (size_t k = 0; k < n_remote; ++k) {
        WorkerProc w;
        w.remote = true;
        w.spec = opts.remote_workers[k];
        w.slot = static_cast<int>(n_local + k);
        w.last_frame = std::chrono::steady_clock::now();
        uint64_t retries = 0;
        w.fd = wire::connectWithRetry(w.spec, wire::RetryPolicy{},
                                      &retries);
        stats.connect_retries += retries;
        if (w.fd < 0) {
            warn("sweep worker '", w.spec,
                 "' is unreachable; the rest of the fleet takes its "
                 "share");
            w.dead = true;
            ++stats.worker_failures;
            stats.degraded = true;
        } else {
            ++stats.workers_started;
        }
        fleet.push_back(std::move(w));
    }

    auto fail = [&](const std::string &msg) {
        killFleet(fleet);
        guard.armed = false;
        fatal(msg);
    };

    /** Put the unfinished points of one assignment back at the front
     *  of the queue (finished ones are dropped — their rows are
     *  merged); @return how many went back. */
    auto requeue = [&](const std::vector<size_t> &assignment) {
        std::vector<size_t> open;
        for (size_t i : assignment)
            if (!done[i])
                open.push_back(i);
        size_t n = open.size();
        if (n) {
            stats.points_reassigned += n;
            ++stats.reassignments;
            queue.push_front(std::move(open));
        }
        return n;
    };

    auto markDead = [&](WorkerProc &w, const std::string &why) {
        if (w.dead && w.fd < 0)
            return;
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            int status = 0;
            ::waitpid(w.pid, &status, 0);
            w.pid = -1;
        }
        w.dead = true;
        w.buf.clear();
        ++stats.worker_failures;
        stats.degraded = true;
        // Newest first, so the oldest ends up at the very front.
        size_t lost = 0;
        for (auto it = w.assigned.rbegin(); it != w.assigned.rend();
             ++it)
            lost += requeue(it->second);
        w.assigned.clear();
        warn("sweep worker ", w.slot,
             w.spec.empty() ? std::string()
                            : " ('" + w.spec + "')",
             " lost (", why, "); ", lost,
             " unfinished point(s) requeued");
    };

    // Fault injection kills the worker when its Nth row arrives and
    // drops that row, so the death always orphans at least its point
    // whichever chunk boundary N lands on.
    bool fault_pending = opts.fault_kill_worker >= 0;
    auto fault_at_row = static_cast<uint64_t>(
        std::max(1, opts.fault_kill_after_rows));
    auto injectFault = [&](WorkerProc &w) {
        if (!fault_pending || w.slot != opts.fault_kill_worker
            || w.pid <= 0 || w.merged_rows + 1 < fault_at_row)
            return false;
        fault_pending = false;
        inform("sharded sweep: fault injection killing worker ",
               w.slot, " at its row ", fault_at_row);
        markDead(w, "fault injection");
        return true;
    };

    /** Hand worker @p w the front chunk as a new assignment.  A write
     *  failure marks it dead, which puts the chunk back. */
    uint64_t next_id = 0;
    auto assign = [&](WorkerProc &w) {
        uint64_t id = next_id++;
        const std::vector<size_t> &chunk = w.assigned[id] =
            std::move(queue.front());
        queue.pop_front();
        w.last_frame = std::chrono::steady_clock::now();
        std::ostringstream os;
        JsonWriter j(os, /*compact=*/true);
        j.beginObject();
        j.field("grid_fingerprint", grid_fp);
        j.field("points", static_cast<uint64_t>(points.size()));
        j.field("id", id);
        j.key("indices");
        j.beginArray();
        for (size_t i : chunk)
            j.value(static_cast<uint64_t>(i));
        j.endArray();
        if (w.remote)
            j.field("grid", grid_json);
        j.endObject();
        wire::IoResult res = wire::writeFrame(
            w.fd, wire::FrameType::ShardAssign, os.str());
        if (!res.ok())
            markDead(w, "assigning points failed: "
                            + res.describe());
    };

    auto liveWorkers = [&] {
        return static_cast<size_t>(std::count_if(
            fleet.begin(), fleet.end(),
            [](const WorkerProc &w) { return w.fd >= 0; }));
    };
    auto anyBusy = [&] {
        return std::any_of(fleet.begin(), fleet.end(),
                           [](const WorkerProc &w) {
                               return w.fd >= 0 && !w.assigned.empty();
                           });
    };
    // A dead remote with redial configured may yet rejoin.
    auto redialable = [&] {
        return opts.remote_redial_interval_sec > 0
            && std::any_of(fleet.begin(), fleet.end(),
                           [](const WorkerProc &w) {
                               return w.remote && w.dead && w.fd < 0;
                           });
    };

    size_t restarts_used = 0;
    auto max_restarts =
        static_cast<size_t>(std::max(0, opts.max_worker_restarts));

    /** Replace lost workers while queued work and the restart budget
     *  remain, then hand the front chunk to every free thread. */
    auto dispatch = [&] {
        while (!queue.empty()) {
            if (liveWorkers() < width && restarts_used < max_restarts) {
                int slot = static_cast<int>(width + restarts_used);
                ++restarts_used;
                ++stats.worker_restarts;
                spawnLocal(slot);
                inform("sharded sweep: respawned worker ", slot,
                       " to replace a lost one");
                continue;
            }
            auto idle = std::find_if(
                fleet.begin(), fleet.end(), [](const WorkerProc &w) {
                    return w.fd >= 0 && w.assigned.size() < w.threads;
                });
            if (idle == fleet.end())
                return;
            assign(*idle);
        }
    };

    auto mergeRow = [&](const std::string &line, WorkerProc &from) {
        SweepPoint row = engine::parseSweepRowLine(line);
        fatalIf(row.index >= points.size(),
                "worker row names out-of-range index ", row.index);
        // Every worker's row for an index is byte-identical by
        // construction, so dropping a repeat is exact.
        if (done[row.index])
            return;
        SweepPoint &dst = points[row.index];
        fatalIf(row.app_name != dst.app_name
                    || row.backend != dst.backend
                    || row.policy != dst.policy
                    || row.arbiter != dst.arbiter
                    || row.layout_objective != dst.layout_objective
                    || row.epr_window != dst.epr_window
                    || row.defect != dst.defect,
                "worker row ", row.index,
                " disagrees with the grid expansion");
        // Rows stream to disk as they land, so a killed sharded
        // sweep leaves the same resumable partial file a killed
        // single-process one does.
        if (rows_stream.is_open()) {
            rows_stream << line << "\n";
            rows_stream.flush();
        }
        size_t index = dst.index;
        size_t app_index = dst.app_index;
        int distance = dst.distance;
        double kq = dst.kq;
        dst = std::move(row);
        dst.index = index;
        dst.app_index = app_index;
        dst.distance = distance;
        dst.kq = kq;
        done[dst.index] = 1;
        --remaining;
        from.busy_s += (dst.prepare_ms + dst.wall_ms) / 1e3;
    };

    auto last_progress = std::chrono::steady_clock::now();
    auto last_redial = last_progress;

    while (remaining > 0 || anyBusy()) {
        // Redial dead remote workers while chunks are queued: a
        // restarted `compile_server --sweep-worker` on the same
        // address rejoins the fleet here and pulls chunks like any
        // idle worker.  One connect attempt per probe — the live
        // fleet must keep draining.
        if (opts.remote_redial_interval_sec > 0 && !queue.empty()
            && std::chrono::steady_clock::now() - last_redial
                >= std::chrono::seconds(
                    opts.remote_redial_interval_sec)) {
            last_redial = std::chrono::steady_clock::now();
            for (WorkerProc &w : fleet) {
                if (!w.remote || !w.dead || w.fd >= 0)
                    continue;
                wire::RetryPolicy probe;
                probe.max_attempts = 1;
                int fd = wire::connectWithRetry(w.spec, probe);
                if (fd < 0)
                    continue;
                w.fd = fd;
                w.dead = false;
                w.threads = 1; // Until the new process's Hello.
                w.buf.clear();
                w.last_frame = std::chrono::steady_clock::now();
                ++stats.remote_redials;
                ++stats.workers_started;
                inform("sharded sweep: remote worker '", w.spec,
                       "' rejoined the fleet");
            }
        }
        dispatch();
        if (!queue.empty() && liveWorkers() == 0 && !redialable())
            fail("sharded sweep unrecoverable: "
                 + std::to_string(remaining)
                 + " points remain with no live workers and the "
                   "restart budget exhausted");
        if (remaining > 0 && queue.empty() && !anyBusy())
            fail("internal: sharded sweep lost track of "
                 + std::to_string(remaining)
                 + " unfinished points");

        std::vector<pollfd> fds;
        std::vector<size_t> owner;
        for (size_t k = 0; k < fleet.size(); ++k) {
            if (fleet[k].fd >= 0) {
                fds.push_back({fleet[k].fd, POLLIN, 0});
                owner.push_back(k);
            }
        }
        if (fds.empty()) {
            // Everyone is dead and the queue waits on a redial
            // probe.  Sleep instead of spinning, and keep the hang
            // guard armed — a remote that never comes back must not
            // wedge the sweep.
            if (opts.idle_timeout_sec > 0
                && std::chrono::steady_clock::now() - last_progress
                    > std::chrono::seconds(opts.idle_timeout_sec))
                fail("sharded sweep hung: no worker progress in "
                     + std::to_string(opts.idle_timeout_sec)
                     + "s waiting for a remote redial; fleet "
                       "killed");
            ::poll(nullptr, 0, 50);
            continue;
        }
        int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   1000);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            fail(std::string("poll() failed: ")
                 + std::strerror(errno));
        }
        auto now = std::chrono::steady_clock::now();
        if (ready == 0) {
            if (opts.idle_timeout_sec > 0
                && now - last_progress
                    > std::chrono::seconds(opts.idle_timeout_sec))
                fail("sharded sweep hung: no worker progress in "
                     + std::to_string(opts.idle_timeout_sec)
                     + "s; fleet killed");
        }
        for (size_t i = 0;
             i < fds.size() && ready > 0; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerProc &w = fleet[owner[i]];
            if (w.fd < 0)
                continue;
            char bytes[64 * 1024];
            ssize_t n = ::read(w.fd, bytes, sizeof(bytes));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                markDead(w, std::string("read failed: ")
                                + std::strerror(errno));
                continue;
            }
            if (n == 0) {
                // A worker never closes first in a healthy fleet
                // (it waits for Shutdown): EOF is death, and a
                // non-empty buffer is its torn last frame.
                markDead(w, w.buf.empty()
                                ? "closed its connection"
                                : "closed mid-frame");
                continue;
            }
            w.buf.append(bytes, static_cast<size_t>(n));
            w.last_frame = now;
            last_progress = now;
            while (w.fd >= 0) {
                wire::Frame frame;
                size_t consumed = 0;
                wire::DecodeStatus st = wire::decodeFrame(
                    w.buf.data(), w.buf.size(), frame, consumed);
                if (st == wire::DecodeStatus::NeedMore)
                    break;
                if (st != wire::DecodeStatus::Ok) {
                    markDead(w,
                             std::string("sent a corrupt frame (")
                                 + wire::decodeStatusName(st)
                                 + ")");
                    break;
                }
                w.buf.erase(0, consumed);
                switch (frame.type) {
                  case wire::FrameType::Hello:
                    // Its thread count is how many chunks it runs at
                    // once; a worker that names none runs one.
                    try {
                        JsonValue doc = parseJson(frame.payload);
                        const JsonValue *svc = doc.find("service");
                        const JsonValue *t = doc.find("threads");
                        if (svc && svc->isString()
                            && svc->str != "qsurf-sweep-worker")
                            markDead(w, "peer is a '" + svc->str
                                            + "', not a sweep "
                                              "worker");
                        else if (t)
                            w.threads = std::max<uint64_t>(
                                1, t->toUint("sweep worker Hello",
                                             "threads"));
                    } catch (const FatalError &) {
                        markDead(w, "sent an unparseable Hello");
                    }
                    break;
                  case wire::FrameType::Row:
                    // The row, and any behind it, dies with the
                    // worker: what a mid-compute crash looks like.
                    if (injectFault(w))
                        break;
                    try {
                        mergeRow(frame.payload, w);
                    } catch (const FatalError &) {
                        killFleet(fleet);
                        guard.armed = false;
                        throw;
                    }
                    ++w.merged_rows;
                    break;
                  case wire::FrameType::Done: {
                    auto it = w.assigned.end();
                    try {
                        JsonValue doc = parseJson(frame.payload);
                        if (const JsonValue *id = doc.find("id"))
                            it = w.assigned.find(
                                id->toUint("sweep worker Done", "id"));
                    } catch (const FatalError &) {
                    }
                    if (it == w.assigned.end()) {
                        markDead(w, "sent a Done for no open "
                                    "assignment");
                        break;
                    }
                    // Defensive: a Done with unfinished points would
                    // deadlock the sweep; requeue them instead of
                    // trusting the worker.
                    if (size_t left = requeue(it->second)) {
                        warn("sweep worker ", w.slot,
                             " finished an assignment with ", left,
                             " point(s) incomplete; requeueing them");
                        stats.degraded = true;
                    }
                    w.assigned.erase(it);
                    break;
                  }
                  case wire::FrameType::Error: {
                    std::string msg = frame.payload;
                    try {
                        JsonValue doc = parseJson(frame.payload);
                        if (const JsonValue *e =
                                doc.find("error"))
                            if (e->isString())
                                msg = e->str;
                    } catch (const FatalError &) {
                    }
                    markDead(w, "failed: " + msg);
                    break;
                  }
                  default:
                    markDead(w,
                             std::string("sent an unexpected ")
                                 + wire::frameTypeName(frame.type)
                                 + " frame");
                }
            }
        }
        if (opts.worker_stall_timeout_sec > 0) {
            for (WorkerProc &w : fleet) {
                if (w.fd >= 0 && !w.assigned.empty()
                    && now - w.last_frame
                        > std::chrono::seconds(
                            opts.worker_stall_timeout_sec))
                    markDead(w,
                             "stalled for "
                                 + std::to_string(
                                     opts.worker_stall_timeout_sec)
                                 + "s");
            }
        }
    }

    // Orderly teardown: every survivor gets a Shutdown and must
    // exit clean.  Workers the parent killed were already reaped.
    for (WorkerProc &w : fleet)
        if (w.fd >= 0)
            wire::writeFrame(w.fd, wire::FrameType::Shutdown, "{}");
    for (WorkerProc &w : fleet) {
        if (w.fd >= 0) {
            ::close(w.fd);
            w.fd = -1;
        }
    }
    for (WorkerProc &w : fleet) {
        if (w.pid <= 0)
            continue;
        int status = 0;
        pid_t r = ::waitpid(w.pid, &status, 0);
        pid_t pid = w.pid;
        w.pid = -1;
        if (r != pid || !WIFEXITED(status)
            || WEXITSTATUS(status) != 0) {
            warn("sweep worker ", w.slot,
                 " exited uncleanly after shutdown (status ",
                 status, ")");
            stats.degraded = true;
        }
    }
    guard.armed = false;
    for (const WorkerProc &w : fleet)
        stats.worker_busy_s.push_back(w.busy_s);

    fatalIf(remaining != 0, "sharded sweep finished with ",
            remaining, " points unaccounted for");

    if (!opts.sweep.json_path.empty()) {
        std::ofstream os(opts.sweep.json_path);
        fatalIf(!os, "cannot open '", opts.sweep.json_path,
                "' for writing");
        engine::writeSweepJson(os, opts.sweep.title, points);
    }
    finalize();
    return points;
}

} // namespace qsurf::service
