/**
 * @file
 * Scale-out benchmark: multi-process sharded sweeps and arena A/B.
 *
 *   $ ./scaleout           # full large-distance grid
 *   $ ./scaleout --smoke   # small grid, CI-sized
 *
 * Three claims, each measured and enforced (nonzero exit on
 * violation):
 *
 *  1. Correctness: a sharded sweep's merged rows are identical to a
 *     single-process run's (canonicalSweepRows(), which excludes
 *     wall-clock and allocation observations — those physically
 *     differ between runs) at every worker count.
 *  2. Scale: wall clock improves with worker count on a
 *     large-distance lattice-surgery grid; the JSON records the
 *     speedup ladder.  Enforced only when the machine actually has
 *     the cores (>= 4): on a 1-core container every extra process
 *     is pure overhead and the ladder is reported, not judged.
 *  3. Allocation: running points under the per-point scratch arena
 *     is not slower than the plain-heap path and cuts global-heap
 *     allocations (counted by the replaced operator new below).
 *  4. Fault tolerance: a worker SIGKILLed mid-sweep (fault
 *     injection in the shard scheduler) costs wall clock, never
 *     rows — the merged rows are still byte-identical to the
 *     single-process run, and the fleet reports degraded mode and
 *     at least one requeued point.
 *  5. Transport equivalence: the same fleet over TCP loopback
 *     (ShardOptions::local_tcp) produces byte-identical rows at
 *     every worker count — the framing, not the socket family,
 *     carries the determinism.
 *
 * Every run uses its own cold PrepareCache and one thread per
 * process, so the sharded/single comparison measures process
 * scale-out, not cache warmth.  Results land in BENCH_scaleout.json.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"

#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/sweep.h"
#include "service/cache.h"
#include "service/shard.h"

namespace {

using namespace qsurf;
using Clock = std::chrono::steady_clock;

struct RunResult
{
    double wall_ms = 0;
    std::string canonical;
    uint64_t heap_allocs = 0;
    uint64_t arena_allocs = 0;
    uint64_t arena_bytes = 0;
    std::vector<engine::SweepPoint> points;
};

engine::SweepGrid
makeGrid(bool smoke)
{
    // Simulation wall time tracks circuit size (fast-forward skips
    // idle cycles, so distance mostly rescales reported cycles, not
    // work); the full grid uses deep iteration counts so each point
    // costs enough for process scale-out to be the dominant term.
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, smoke ? 2 : 96}, ""},
                 {apps::AppKind::GSE, {16, smoke ? 2 : 256}, ""}};
    grid.backends = {engine::backends::surgery_sim};
    grid.distances = smoke ? std::vector<int>{9, 13}
                           : std::vector<int>{63, 75, 87, 99};
    // Deep circuits at d=99 legitimately run past the default
    // runaway guard (cycles scale with gates x distance).
    if (!smoke)
        grid.base.max_cycles = 100'000'000'000ull;
    return grid;
}

/** One single-process run (1 thread, cold cache). */
RunResult
runSingle(const engine::SweepGrid &grid, bool use_arena)
{
    service::PrepareCache cache;
    engine::SweepOptions opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    opts.stream_rows = false;
    opts.use_arena = use_arena;
    opts.heap_alloc_counter = [] { return benchhook::heapAllocs(); };

    RunResult r;
    auto start = Clock::now();
    r.points = engine::SweepDriver().run(grid, opts);
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    Clock::now() - start)
                    .count();
    r.canonical = engine::canonicalSweepRows(r.points);
    for (const engine::SweepPoint &p : r.points) {
        r.heap_allocs += p.heap_allocs;
        r.arena_allocs += p.arena_allocs;
        r.arena_bytes += p.arena_bytes;
    }
    return r;
}

/** Knobs of one sharded bench run beyond the worker count. */
struct ShardVariant
{
    bool local_tcp = false;    ///< TCP loopback instead of socketpair.
    int fault_kill_worker = -1; ///< Fault injection (see shard.h).
    int fault_kill_after_rows = 0;
    service::FleetStats *stats = nullptr;
};

/** One sharded run (N forked workers, 1 thread each, cold cache). */
RunResult
runSharded(const engine::SweepGrid &grid, int workers,
           const ShardVariant &variant = {})
{
    service::PrepareCache cache;
    service::ShardOptions opts;
    opts.workers = workers;
    opts.sweep.num_threads = 1;
    opts.sweep.cache = &cache;
    opts.sweep.stream_rows = false;
    opts.idle_timeout_sec = 300;
    opts.local_tcp = variant.local_tcp;
    opts.fault_kill_worker = variant.fault_kill_worker;
    opts.fault_kill_after_rows = variant.fault_kill_after_rows;
    opts.stats = variant.stats;

    RunResult r;
    auto start = Clock::now();
    r.points = service::runShardedSweep(grid, opts);
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    Clock::now() - start)
                    .count();
    r.canonical = engine::canonicalSweepRows(r.points);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke") {
            smoke = true;
        } else {
            std::cerr << "usage: " << argv[0] << " [--smoke]\n";
            return 2;
        }
    }
    setQuiet(true);

    engine::SweepGrid grid = makeGrid(smoke);
    std::vector<int> worker_counts =
        smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
    unsigned cores = std::thread::hardware_concurrency();

    std::cout << "scale-out grid: " << grid.points()
              << " lattice-surgery points, distances";
    for (int d : grid.distances)
        std::cout << " " << d;
    std::cout << (smoke ? " (smoke)" : "") << ", " << cores
              << " cores\n\n";

    // Claim 3 first (the arena A/B runs double as the single-process
    // baseline): heap path, then arena path, same grid.
    RunResult heap_run = runSingle(grid, /*use_arena=*/false);
    RunResult arena_run = runSingle(grid, /*use_arena=*/true);
    bool rows_ok = arena_run.canonical == heap_run.canonical;
    bool fewer_allocs =
        arena_run.heap_allocs < heap_run.heap_allocs;

    const RunResult &baseline = arena_run;

    // Claims 1 and 2: the worker ladder against the baseline.
    struct ShardRow
    {
        int workers;
        double wall_ms;
        double speedup;
        bool identical;
    };
    std::vector<ShardRow> ladder;
    for (int w : worker_counts) {
        RunResult r = runSharded(grid, w);
        ladder.push_back(
            {w, r.wall_ms, baseline.wall_ms / r.wall_ms,
             r.canonical == baseline.canonical});
    }

    // Claim 5: the same ladder over TCP loopback.
    std::vector<ShardRow> tcp_ladder;
    for (int w : worker_counts) {
        ShardVariant tcp;
        tcp.local_tcp = true;
        RunResult r = runSharded(grid, w, tcp);
        tcp_ladder.push_back(
            {w, r.wall_ms, baseline.wall_ms / r.wall_ms,
             r.canonical == baseline.canonical});
    }

    // Claim 4: kill one of two workers mid-sweep, when its first
    // row arrives (a later one may never come: the smoke grid's 4
    // points go out one at a time); the fleet must requeue that
    // point and the rows must not move.
    service::FleetStats fault_stats;
    ShardVariant fault;
    fault.fault_kill_worker = 1;
    fault.fault_kill_after_rows = 1;
    fault.stats = &fault_stats;
    RunResult fault_run = runSharded(grid, 2, fault);
    bool fault_ok = fault_run.canonical == baseline.canonical
        && fault_stats.degraded && fault_stats.worker_failures >= 1
        && fault_stats.points_reassigned >= 1;

    Table t("Sharded sweep vs single process (1 thread per process)");
    t.header({"mode", "workers", "wall ms", "speedup", "rows",
              "heap allocs", "arena allocs"});
    t.addRow("single (heap)", 1, Table::fixed(heap_run.wall_ms, 1),
             Table::fixed(1.0, 2), "baseline",
             heap_run.heap_allocs, heap_run.arena_allocs);
    t.addRow("single (arena)", 1,
             Table::fixed(arena_run.wall_ms, 1),
             Table::fixed(heap_run.wall_ms / arena_run.wall_ms, 2),
             rows_ok ? "identical" : "MISMATCH",
             arena_run.heap_allocs, arena_run.arena_allocs);
    for (const ShardRow &row : ladder)
        t.addRow("sharded", row.workers,
                 Table::fixed(row.wall_ms, 1),
                 Table::fixed(row.speedup, 2),
                 row.identical ? "identical" : "MISMATCH", "-", "-");
    for (const ShardRow &row : tcp_ladder)
        t.addRow("sharded (tcp)", row.workers,
                 Table::fixed(row.wall_ms, 1),
                 Table::fixed(row.speedup, 2),
                 row.identical ? "identical" : "MISMATCH", "-", "-");
    t.addRow("sharded (kill 1 of 2)", 2,
             Table::fixed(fault_run.wall_ms, 1),
             Table::fixed(baseline.wall_ms / fault_run.wall_ms, 2),
             fault_run.canonical == baseline.canonical
                 ? "identical"
                 : "MISMATCH",
             "-", "-");
    t.print(std::cout);

    std::cout << "\nfault injection: killed worker 1 at its row "
              << fault.fault_kill_after_rows << "; "
              << fault_stats.worker_failures << " failure(s), "
              << fault_stats.worker_restarts << " restart(s), "
              << fault_stats.points_reassigned
              << " point(s) reassigned, degraded="
              << (fault_stats.degraded ? "true" : "false") << "\n";

    std::cout << "\narena A/B: " << heap_run.heap_allocs
              << " heap allocs without arena vs "
              << arena_run.heap_allocs << " with ("
              << arena_run.arena_allocs
              << " arena allocs absorbed)\n";

    const char *json_path = "BENCH_scaleout.json";
    {
        std::ofstream os(json_path);
        fatalIf(!os, "cannot open '", json_path, "' for writing");
        JsonWriter j(os);
        j.beginObject();
        j.field("title",
                "Scale-out: sharded sweeps and per-point arenas");
        j.field("smoke", smoke);
        j.field("cores", static_cast<uint64_t>(cores));
        j.field("points", static_cast<uint64_t>(grid.points()));
        j.field("grid_fingerprint",
                engine::sweepGridFingerprint(grid));
        j.key("arena_ab");
        j.beginArray();
        for (const RunResult *r : {&heap_run, &arena_run}) {
            j.beginObject();
            j.field("arena", r == &arena_run);
            j.field("wall_ms", r->wall_ms);
            j.field("heap_allocs", r->heap_allocs);
            j.field("arena_allocs", r->arena_allocs);
            j.field("arena_bytes", r->arena_bytes);
            j.field("rows_identical",
                    r->canonical == baseline.canonical);
            j.endObject();
        }
        j.endArray();
        j.key("sharded");
        j.beginArray();
        for (const ShardRow &row : ladder) {
            j.beginObject();
            j.field("workers", row.workers);
            j.field("wall_ms", row.wall_ms);
            j.field("speedup", row.speedup);
            j.field("rows_identical", row.identical);
            j.endObject();
        }
        j.endArray();
        j.key("sharded_tcp");
        j.beginArray();
        for (const ShardRow &row : tcp_ladder) {
            j.beginObject();
            j.field("workers", row.workers);
            j.field("wall_ms", row.wall_ms);
            j.field("speedup", row.speedup);
            j.field("rows_identical", row.identical);
            j.endObject();
        }
        j.endArray();
        // Degraded-mode summary of the kill-one-worker run: the
        // fleet lost a worker and still produced exact rows.
        j.key("fault");
        j.beginObject();
        j.field("workers", 2);
        j.field("killed_worker", fault.fault_kill_worker);
        j.field("killed_after_rows", fault.fault_kill_after_rows);
        j.field("wall_ms", fault_run.wall_ms);
        j.field("rows_identical",
                fault_run.canonical == baseline.canonical);
        j.field("degraded", fault_stats.degraded);
        j.field("worker_failures", fault_stats.worker_failures);
        j.field("worker_restarts", fault_stats.worker_restarts);
        j.field("reassignments", fault_stats.reassignments);
        j.field("points_reassigned",
                fault_stats.points_reassigned);
        j.endObject();
        j.endObject();
        os << "\n";
    }
    std::cout << "wrote " << json_path << "\n";

    bool ok = rows_ok && fewer_allocs && fault_ok;
    for (const ShardRow &row : ladder)
        ok = ok && row.identical;
    for (const ShardRow &row : tcp_ladder)
        ok = ok && row.identical;
    if (!rows_ok)
        std::cerr << "FAIL: arena rows differ from heap rows\n";
    if (!fewer_allocs)
        std::cerr << "FAIL: arena did not reduce heap allocations ("
                  << arena_run.heap_allocs << " vs "
                  << heap_run.heap_allocs << ")\n";
    for (const ShardRow &row : ladder)
        if (!row.identical)
            std::cerr << "FAIL: " << row.workers
                      << "-worker sharded rows differ from "
                         "single-process rows\n";
    for (const ShardRow &row : tcp_ladder)
        if (!row.identical)
            std::cerr << "FAIL: " << row.workers
                      << "-worker TCP-transport rows differ from "
                         "single-process rows\n";
    if (!fault_ok)
        std::cerr << "FAIL: kill-one-worker run "
                  << (fault_run.canonical != baseline.canonical
                          ? "changed the merged rows"
                      : fault_stats.degraded
                          ? "reassigned no points"
                          : "did not report degraded mode")
                  << "\n";

    // The speedup claim needs cores to scale onto; a 1-core
    // container can only demonstrate correctness, not wall clock.
    if (!smoke && cores >= 4) {
        const ShardRow &widest = ladder.back();
        if (widest.speedup < 2.0) {
            std::cerr << "FAIL: " << widest.workers
                      << "-worker speedup "
                      << Table::fixed(widest.speedup, 2) << "x < 2x on "
                      << cores << " cores\n";
            ok = false;
        }
    } else if (!smoke) {
        std::cout << "note: " << cores
                  << " core(s) — speedup ladder recorded, not "
                     "enforced\n";
    }
    return ok ? 0 : 1;
}
