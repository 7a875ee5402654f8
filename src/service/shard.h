/**
 * @file
 * Multi-process sharded sweep execution — fault-tolerant.
 *
 * runShardedSweep() runs a SweepGrid across a fleet of worker
 * processes and merges their rows into the same results (and the
 * same BENCH_*.json) a single-process SweepDriver::run() produces.
 * The parent keeps a queue of chunks and hands the front one to
 * each free worker thread.  A chunk is a run of consecutive point
 * indices sharing the grid's three outermost axes (app, size,
 * distance) — the only points that can share a prepare artifact, so
 * one thread builds it; a grid with fewer such blocks than twice the
 * fleet width is queued a point at a time.  A worker runs as many
 * chunks side by side as its Hello says it has threads, one thread
 * each, and reports Done per chunk; that thread is handed the next
 * chunk then, so a slow point holds up only its own thread.
 * Per-point seeds depend only on the grid, so any worker reproduces
 * exactly the rows any other execution would produce for its
 * indices, in any order — the merged document is byte-identical to
 * the single-process one (canonicalSweepRows() compares them;
 * wall-clock observations are excluded, they physically differ).
 *
 * The fleet mixes three worker shapes behind one wire protocol
 * (src/service/wire.h — Hello up, ShardAssign down, Row/Done up,
 * Shutdown down):
 *
 *  - forked locals over a socketpair (grid inherited, so
 *    caller-built circuits need no serialization);
 *  - forked locals connecting back over TCP loopback
 *    (ShardOptions::local_tcp — the hermetic transport check);
 *  - remote workers (`compile_server --sweep-worker` listening on
 *    host:port, named in ShardOptions::remote_workers) that the
 *    parent dials with capped-backoff retries and ships the grid to
 *    as JSON with each assignment.
 *
 * One dead peer never kills the fleet: the parent tracks completion
 * per point (the rows_path stream persists finished rows), detects
 * worker death via read-EOF/reset/corrupt-frame or a stall deadline,
 * and puts the lost worker's *unfinished* points back at the front
 * of the queue, where the next idle worker pulls them.  A lost
 * worker is replaced by a respawned local while max_worker_restarts
 * allows.  Failures are summarized in FleetStats (degraded mode)
 * rather than aborting the sweep; only an unrecoverable fleet (no
 * survivors, restarts exhausted) is fatal.
 */

#ifndef QSURF_SERVICE_SHARD_H
#define QSURF_SERVICE_SHARD_H

#include <string>
#include <vector>

#include "engine/registry.h"
#include "engine/sweep.h"

namespace qsurf::service {

/** Outcome counters of one sharded sweep fleet (degraded-mode
 *  summary). */
struct FleetStats
{
    uint64_t workers_started = 0;  ///< Initial fleet + respawns.
    uint64_t worker_failures = 0;  ///< Deaths, stalls, Error frames.
    uint64_t worker_restarts = 0;  ///< Replacement locals forked.
    uint64_t reassignments = 0;    ///< Lost chunks put back on the queue.
    uint64_t points_reassigned = 0; ///< Unfinished points requeued.
    uint64_t connect_retries = 0;  ///< Failed remote dial attempts.
    uint64_t remote_redials = 0;   ///< Dead remotes that rejoined.

    /** Any worker was lost along the way: the rows are still exact,
     *  but wall clock ran under reduced parallelism. */
    bool degraded = false;

    /** Per fleet slot (respawns follow the initial width): summed
     *  prepare_ms + wall_ms of the rows merged from that worker, in
     *  seconds.  The slowest slot over the mean is the fleet's load
     *  imbalance; wall clock beyond the slowest is its overhead. */
    std::vector<double> worker_busy_s;
};

/** Knobs of one sharded sweep. */
struct ShardOptions
{
    /** Local worker processes to fork; may be 0 when
     *  remote_workers is non-empty. */
    int workers = 2;

    /**
     * Per-worker sweep execution options.  json_path / rows_path /
     * resume / title apply to the parent's merged output; each
     * worker runs num_threads chunks side by side (one thread each)
     * with use_cache / use_arena of this, and never writes files
     * itself.  trace / metrics / on_row / point_filter /
     * heap_alloc_counter are parent-side concepts and must be unset
     * (fatal() otherwise): a forked worker's registry would die with
     * it.
     */
    engine::SweepOptions sweep;

    /**
     * Seconds of silence (no frame from any worker) before the
     * parent declares the whole fleet hung, kills it and fatal()s;
     * 0 disables.  This is the CI guard against a wedged fleet
     * stalling a pipeline forever.
     */
    int idle_timeout_sec = 600;

    /**
     * Remote sweep workers, "host:port" each — `compile_server
     * --sweep-worker --tcp=...` processes on other machines.  The
     * parent dials them with connectWithRetry() and ships the grid
     * as JSON with each assignment (the worker decodes the first
     * copy and keeps it), so grids with caller-built circuits (not
     * representable on the wire) fatal() here.  A remote worker runs
     * one chunk at a time until its Hello names its thread count.
     * One that dies is replaced like any other — and is
     * periodically redialed when remote_redial_interval_sec is set,
     * so a restarted process on the same address rejoins the fleet.
     */
    std::vector<std::string> remote_workers;

    /**
     * Seconds between redial probes of dead remote workers while
     * chunks are queued.  Each probe is a single connect attempt
     * (no backoff — the poll loop must keep draining live workers);
     * a probe that connects puts the worker back in the fleet, where
     * it pulls chunks like any idle worker.  Counted in
     * FleetStats::remote_redials.  0 disables redialing (a dead
     * remote stays dead).
     */
    int remote_redial_interval_sec = 0;

    /**
     * Fork local workers that connect back over TCP loopback
     * instead of a socketpair: same processes, same rows, but the
     * bytes cross the real TCP transport (the scale-out bench's
     * transport-equivalence check).
     */
    bool local_tcp = false;

    /**
     * Replacement local workers the parent may fork, one per lost
     * worker while chunks remain; once exhausted, the survivors
     * drain the queue alone.  0 disables respawning.
     */
    int max_worker_restarts = 2;

    /**
     * Seconds of per-worker silence (while it owes rows) before
     * that one worker is declared hung, killed and its points
     * requeued; 0 disables.  Distinct from idle_timeout_sec, which
     * is fleet-wide and fatal.
     */
    int worker_stall_timeout_sec = 0;

    /**
     * Fault injection for tests and the scale-out bench: SIGKILL
     * the local worker at fleet slot fault_kill_worker when row
     * number fault_kill_after_rows (at least 1) of its rows
     * arrives.  That row and any behind it die unmerged with the
     * worker (what a mid-compute crash looks like), so the death
     * always orphans unfinished points, wherever the count falls
     * against chunk boundaries.  -1 disables.
     */
    int fault_kill_worker = -1;
    int fault_kill_after_rows = 0;

    /** When non-null, receives the fleet outcome summary. */
    FleetStats *stats = nullptr;
};

/**
 * Run @p grid across the worker fleet; @return results in grid
 * expansion order, exactly as SweepDriver::run() would.  Worker
 * deaths are recovered per the options above; fatal() is reserved
 * for configuration errors and unrecoverable fleets (every worker
 * dead with restarts exhausted, or the fleet-wide idle timeout).
 */
std::vector<engine::SweepPoint>
runShardedSweep(const engine::SweepGrid &grid,
                const ShardOptions &opts,
                const engine::Registry &registry =
                    engine::Registry::global());

/** Environment of one sweep-worker connection (serveSweepWorker). */
struct SweepWorkerEnv
{
    /**
     * The inherited grid (forked workers); null means the worker
     * expects the grid as JSON inside its first ShardAssign (remote
     * workers, which share no memory with the parent).
     */
    const engine::SweepGrid *grid = nullptr;

    /** Execution options (threads, cache, arena); output/callback
     *  fields are overridden by the worker loop. */
    engine::SweepOptions base;

    /** Fleet slot announced in the worker's Hello; -1 for workers
     *  not spawned by the parent (remote compile_server). */
    int slot = -1;

    /** Backend registry; null uses Registry::global(). */
    const engine::Registry *registry = nullptr;
};

/**
 * Serve one sweep-worker connection on @p fd: send Hello (naming
 * its slot and thread count), then loop — ShardAssign in (an id and
 * point indices, plus the grid for a worker that inherited none),
 * Row frames out per completed point, Done with the id when that
 * assignment is finished — until Shutdown or disconnect.  Its
 * env.base.num_threads threads (the caller's among them) take turns
 * reading, and each runs the assignment it read.  An index outside
 * this worker's grid is an Error frame; a repeated one runs once.
 * @return true on an orderly Shutdown, false when the parent
 * vanished or an assignment failed.  Shared by the forked shard
 * workers and `compile_server --sweep-worker`.
 */
bool serveSweepWorker(int fd, const SweepWorkerEnv &env);

} // namespace qsurf::service

#endif // QSURF_SERVICE_SHARD_H
