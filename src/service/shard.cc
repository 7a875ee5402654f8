#include "service/shard.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

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

/** Per-point completion bitmap as a hex string, one nibble per four
 *  points (point 4k+j is bit j of digit k) — compact enough to ride
 *  inside every ShardAssign. */
std::string
encodeDoneHex(const std::vector<uint8_t> &done)
{
    static const char digits[] = "0123456789abcdef";
    std::string out((done.size() + 3) / 4, '0');
    for (size_t k = 0; k < out.size(); ++k) {
        int v = 0;
        for (int j = 0; j < 4; ++j) {
            size_t i = k * 4 + static_cast<size_t>(j);
            if (i < done.size() && done[i])
                v |= 1 << j;
        }
        out[k] = digits[v];
    }
    return out;
}

void
decodeDoneHex(const std::string &hex, std::vector<uint8_t> &done)
{
    for (size_t k = 0; k < hex.size(); ++k) {
        char c = hex[k];
        int v = c >= '0' && c <= '9' ? c - '0'
            : c >= 'a' && c <= 'f'   ? c - 'a' + 10
            : c >= 'A' && c <= 'F'   ? c - 'A' + 10
                                     : -1;
        fatalIf(v < 0, "malformed done bitmap in ShardAssign");
        for (int j = 0; j < 4; ++j) {
            size_t i = k * 4 + static_cast<size_t>(j);
            if (i < done.size() && (v & (1 << j)))
                done[i] = 1;
        }
    }
}

/**
 * Forked-child body: serve the sweep-worker protocol on @p fd, then
 * _exit without returning to the caller's stack (a forked child must
 * not run the parent's destructors or flush its inherited stdio
 * buffers).  Exit 0 means an orderly Shutdown; 1 means the parent
 * vanished or the slice failed.
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
    int slot = -1;     ///< Fleet slot (>= R for respawns).
    bool remote = false;
    std::string spec;  ///< Remote "host:port" (diagnostics).
    std::string buf;   ///< Undecoded bytes read so far.
    std::vector<size_t> residues; ///< Residue classes it owns now.
    bool busy = false; ///< Owes rows / Done for its slice.
    bool dead = false;
    bool killed_by_us = false; ///< Fault injection / stall kill.
    uint64_t merged_rows = 0;  ///< Its rows the parent has merged.
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

    {
        std::ostringstream os;
        JsonWriter j(os, /*compact=*/true);
        j.beginObject();
        j.field("service", "qsurf-sweep-worker");
        j.field("version", static_cast<uint64_t>(wire::kVersion));
        j.field("slot", env.slot);
        j.endObject();
        if (!wire::writeFrame(fd, wire::FrameType::Hello, os.str())
                 .ok())
            return false;
    }

    // The grid: inherited memory for forked workers, decoded off the
    // first ShardAssign for remote ones (and kept for later slices).
    SweepGrid decoded;
    const SweepGrid *grid = env.grid;

    for (;;) {
        wire::Frame frame;
        wire::IoResult r = wire::readFrame(fd, frame);
        if (!r.ok())
            return false; // Parent vanished (or sent garbage).
        if (frame.type == wire::FrameType::Shutdown)
            return true;
        if (frame.type != wire::FrameType::ShardAssign) {
            wire::writeFrame(
                fd, wire::FrameType::Error,
                jsonError(std::string("expected ShardAssign, got ")
                          + wire::frameTypeName(frame.type)));
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
            }
            const JsonValue *workers = doc.find("workers");
            const JsonValue *points = doc.find("points");
            const JsonValue *residues = doc.find("residues");
            fatalIf(!workers || !points || !residues
                        || !residues->isArray(),
                    "malformed ShardAssign payload");
            int n = workers->toInt("ShardAssign", "workers");
            fatalIf(n < 1, "ShardAssign names a fleet of ", n);
            // Everything below is sized by this worker's own grid,
            // never by a number off the wire.
            size_t total = grid->points();
            int claimed = points->toInt("ShardAssign", "points");
            fatalIf(static_cast<size_t>(claimed) != total,
                    "ShardAssign counts ", claimed,
                    " points; this worker's grid has ", total);
            // Residue r >= total owns no point, so the mask stops at
            // min(workers, points).
            std::vector<uint8_t> mask(
                std::min(static_cast<size_t>(n), total), 0);
            for (const JsonValue &rv : residues->items) {
                int r_class = rv.toInt("ShardAssign", "residues");
                fatalIf(r_class < 0 || r_class >= n,
                        "ShardAssign names residue ", r_class, " of ",
                        n);
                if (static_cast<size_t>(r_class) < mask.size())
                    mask[static_cast<size_t>(r_class)] = 1;
            }
            std::vector<uint8_t> done(total, 0);
            if (const JsonValue *d = doc.find("done");
                d && d->isString())
                decodeDoneHex(d->str, done);
            // The assignment names what it believes this worker is
            // running; a mismatch means the processes disagree about
            // the experiment (codec drift, stale remote binary).
            const JsonValue *fp = doc.find("grid_fingerprint");
            fatalIf(fp && fp->isNumber()
                        && fp->num
                            != static_cast<double>(
                                engine::sweepGridFingerprint(*grid)),
                    "ShardAssign grid fingerprint does not match "
                    "this worker's grid");

            // When the parent dies mid-slice the row write fails;
            // skip the remaining points instead of computing rows
            // nobody will read.
            std::atomic<bool> write_failed{false};
            std::atomic<uint64_t> rows{0};
            SweepOptions opts = env.base;
            opts.json_path.clear();
            opts.rows_path.clear();
            opts.stream_rows = false;
            opts.resume = false;
            opts.trace = nullptr;
            opts.metrics = nullptr;
            opts.heap_alloc_counter = nullptr;
            opts.point_filter = [&mask, &done, n,
                                 &write_failed](size_t i) {
                if (write_failed.load(std::memory_order_relaxed))
                    return false;
                size_t r_class = i % static_cast<size_t>(n);
                return r_class < mask.size() && mask[r_class]
                    && !done[i];
            };
            // on_row runs under the driver's row lock, so frames
            // from a multi-threaded worker never interleave.
            opts.on_row = [fd, &rows, &write_failed](
                              const SweepPoint &,
                              std::string_view line) {
                if (write_failed.load(std::memory_order_relaxed))
                    return;
                if (!wire::writeFrame(fd, wire::FrameType::Row,
                                      std::string(line))
                         .ok())
                    write_failed.store(true,
                                       std::memory_order_relaxed);
                else
                    ++rows;
            };
            engine::SweepDriver(registry).run(*grid, opts);
            if (write_failed.load())
                return false;

            std::ostringstream os;
            JsonWriter j(os, /*compact=*/true);
            j.beginObject();
            j.field("rows", rows.load());
            j.endObject();
            if (!wire::writeFrame(fd, wire::FrameType::Done,
                                  os.str())
                     .ok())
                return false;
        } catch (const std::exception &e) {
            wire::writeFrame(fd, wire::FrameType::Error,
                             jsonError(e.what()));
            return false;
        }
    }
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

    uint64_t grid_fp = engine::sweepGridFingerprint(grid);
    std::vector<WorkerProc> fleet;
    fleet.reserve(width);
    FleetGuard guard{fleet};
    std::vector<size_t> orphans; ///< Residue classes awaiting a worker.

    auto spawnLocal = [&](int slot) -> size_t {
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
        w.last_frame = std::chrono::steady_clock::now();
        fleet.push_back(std::move(w));
        ++stats.workers_started;
        return fleet.size() - 1;
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
            fatalIf(!slot || !slot->isNumber(),
                    "tcp worker Hello names no slot");
            auto s = static_cast<size_t>(slot->num);
            fatalIf(s >= n_local || fleet[s].fd >= 0,
                    "tcp worker Hello names bogus slot ",
                    slot->num);
            fleet[s].fd = cfd;
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
                 "' is unreachable; its slice falls back to the "
                 "local fleet");
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

    auto residueOpenPoints = [&](size_t r) {
        size_t open = 0;
        for (size_t i = r; i < points.size(); i += width)
            if (!done[i])
                ++open;
        return open;
    };

    /** Return a worker's unfinished residue classes to the orphan
     *  pool (finished ones are dropped — their rows are on disk). */
    auto orphanResidues = [&](WorkerProc &w) {
        for (size_t r : w.residues) {
            size_t open = residueOpenPoints(r);
            if (open) {
                orphans.push_back(r);
                stats.points_reassigned += open;
            }
        }
        w.residues.clear();
        w.busy = false;
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
        size_t lost = w.residues.size();
        orphanResidues(w);
        warn("sweep worker ", w.slot,
             w.spec.empty() ? std::string()
                            : " ('" + w.spec + "')",
             " lost (", why, "); ", lost,
             " residue class(es) orphaned for reassignment");
    };

    /** Hand @p slice to @p w over the wire.  A write failure marks
     *  the worker dead and re-orphans the slice. */
    auto assignSlice = [&](WorkerProc &w,
                           std::vector<size_t> slice) {
        w.residues = std::move(slice);
        w.busy = true;
        w.last_frame = std::chrono::steady_clock::now();
        std::ostringstream os;
        JsonWriter j(os, /*compact=*/true);
        j.beginObject();
        j.field("worker", static_cast<uint64_t>(w.slot));
        j.field("workers", static_cast<uint64_t>(width));
        j.field("grid_fingerprint", grid_fp);
        j.field("points", static_cast<uint64_t>(points.size()));
        j.key("residues");
        j.beginArray();
        for (size_t r : w.residues)
            j.value(static_cast<uint64_t>(r));
        j.endArray();
        j.field("done", encodeDoneHex(done));
        if (w.remote)
            j.field("grid", grid_json);
        j.endObject();
        wire::IoResult res = wire::writeFrame(
            w.fd, wire::FrameType::ShardAssign, os.str());
        if (!res.ok())
            markDead(w, "assigning its slice failed: "
                            + res.describe());
    };

    // Initial dispatch: the deterministic modulo partition plus
    // per-point seeding means each worker's rows are exactly what a
    // single-process run produces for those indices.
    for (size_t k = 0; k < width; ++k) {
        if (fleet[k].fd >= 0) {
            assignSlice(fleet[k], {k});
        } else {
            size_t open = residueOpenPoints(k);
            if (open) {
                orphans.push_back(k);
                stats.points_reassigned += open;
            }
        }
    }

    auto anyBusy = [&] {
        for (const WorkerProc &w : fleet)
            if (w.fd >= 0 && w.busy)
                return true;
        return false;
    };

    auto mergeRow = [&](const std::string &line) {
        SweepPoint row = engine::parseSweepRowLine(line);
        fatalIf(row.index >= points.size(),
                "worker row names out-of-range index ", row.index);
        // Duplicates happen when a killed worker's buffered rows
        // land after its residue was reassigned; the bytes are
        // identical by construction, so first-wins is exact.
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
    };

    size_t restarts_used = 0;
    auto max_restarts =
        static_cast<size_t>(std::max(0, opts.max_worker_restarts));
    bool fault_pending = opts.fault_kill_worker >= 0;
    auto last_progress = std::chrono::steady_clock::now();
    auto last_redial = last_progress;

    while (remaining > 0 || anyBusy()) {
        // Redial dead remote workers while orphaned work exists: a
        // restarted `compile_server --sweep-worker` on the same
        // address rejoins the fleet here and picks up a slice
        // through the normal orphan dispatch below.  One connect
        // attempt per probe — the live fleet must keep draining.
        if (opts.remote_redial_interval_sec > 0 && !orphans.empty()
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
                w.busy = false;
                w.killed_by_us = false;
                w.buf.clear();
                w.last_frame = std::chrono::steady_clock::now();
                ++stats.remote_redials;
                ++stats.workers_started;
                inform("sharded sweep: remote worker '", w.spec,
                       "' rejoined the fleet");
            }
        }
        // Re-dispatch orphaned residue classes: an idle survivor if
        // one exists, else a respawned local while the restart
        // budget lasts, else wait for a busy survivor to free up.
        if (!orphans.empty()) {
            int idle = -1;
            for (size_t k = 0; k < fleet.size(); ++k) {
                if (fleet[k].fd >= 0 && !fleet[k].busy) {
                    idle = static_cast<int>(k);
                    break;
                }
            }
            if (idle < 0 && restarts_used < max_restarts) {
                int slot =
                    static_cast<int>(width + restarts_used);
                ++restarts_used;
                idle = static_cast<int>(spawnLocal(slot));
                ++stats.worker_restarts;
                inform("sharded sweep: respawned worker ", slot,
                       " to absorb ", orphans.size(),
                       " orphaned residue class(es)");
            }
            if (idle >= 0) {
                ++stats.reassignments;
                std::vector<size_t> slice = std::move(orphans);
                orphans.clear();
                assignSlice(fleet[static_cast<size_t>(idle)],
                            std::move(slice));
            } else if (!anyBusy()) {
                // A dead remote with redial configured may yet
                // rejoin; only a fleet with no such hope is
                // unrecoverable.
                bool redialable = false;
                if (opts.remote_redial_interval_sec > 0)
                    for (const WorkerProc &w : fleet)
                        if (w.remote && w.dead && w.fd < 0)
                            redialable = true;
                if (!redialable)
                    fail("sharded sweep unrecoverable: "
                         + std::to_string(remaining)
                         + " points remain with no live workers "
                           "and the restart budget exhausted");
            }
        }

        std::vector<pollfd> fds;
        std::vector<size_t> owner;
        for (size_t k = 0; k < fleet.size(); ++k) {
            if (fleet[k].fd >= 0) {
                fds.push_back({fleet[k].fd, POLLIN, 0});
                owner.push_back(k);
            }
        }
        if (fds.empty()) {
            if (remaining > 0 && orphans.empty())
                fail("internal: sharded sweep lost track of "
                     + std::to_string(remaining)
                     + " unfinished points");
            // Nothing to poll: everyone is dead and the orphans
            // wait on a redial probe.  Sleep instead of spinning,
            // and keep the hang guard armed — a remote that never
            // comes back must not wedge the sweep.
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
            char chunk[64 * 1024];
            ssize_t n = ::read(w.fd, chunk, sizeof(chunk));
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
            w.buf.append(chunk, static_cast<size_t>(n));
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
                  case wire::FrameType::Hello: {
                    const JsonValue *svc = nullptr;
                    try {
                        JsonValue doc = parseJson(frame.payload);
                        svc = doc.find("service");
                        if (svc && svc->isString()
                            && svc->str != "qsurf-sweep-worker")
                            markDead(w, "peer is a '" + svc->str
                                            + "', not a sweep "
                                              "worker");
                    } catch (const FatalError &) {
                        markDead(w, "sent an unparseable Hello");
                    }
                    break;
                  }
                  case wire::FrameType::Row:
                    try {
                        mergeRow(frame.payload);
                    } catch (const FatalError &) {
                        killFleet(fleet);
                        guard.armed = false;
                        throw;
                    }
                    ++w.merged_rows;
                    if (fault_pending
                        && w.slot == opts.fault_kill_worker
                        && w.pid > 0
                        && w.merged_rows
                            >= static_cast<uint64_t>(std::max(
                                0, opts.fault_kill_after_rows))) {
                        fault_pending = false;
                        w.killed_by_us = true;
                        inform("sharded sweep: fault injection "
                               "killing worker ",
                               w.slot, " after ", w.merged_rows,
                               " merged rows");
                        // Deterministic death: rows it already
                        // buffered are dropped with it (exactly
                        // what a mid-compute crash looks like), so
                        // the orphaned remainder of its slice is
                        // the same at any scheduling.
                        markDead(w, "fault injection");
                    }
                    break;
                  case wire::FrameType::Done: {
                    w.busy = false;
                    // Defensive: a Done with unfinished assigned
                    // points would deadlock the sweep; requeue them
                    // instead of trusting the worker.
                    std::vector<size_t> leftover;
                    for (size_t r : w.residues)
                        if (residueOpenPoints(r))
                            leftover.push_back(r);
                    if (!leftover.empty()) {
                        warn("sweep worker ", w.slot,
                             " finished its slice with ",
                             leftover.size(),
                             " residue class(es) incomplete; "
                             "requeueing them");
                        stats.degraded = true;
                        for (size_t r : leftover) {
                            orphans.push_back(r);
                            stats.points_reassigned +=
                                residueOpenPoints(r);
                        }
                    }
                    w.residues.clear();
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
                if (w.fd >= 0 && w.busy
                    && now - w.last_frame
                        > std::chrono::seconds(
                            opts.worker_stall_timeout_sec)) {
                    w.killed_by_us = true;
                    markDead(w,
                             "stalled for "
                                 + std::to_string(
                                     opts.worker_stall_timeout_sec)
                                 + "s");
                }
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
