/**
 * @file
 * Simulator-performance microbenchmark: the event-driven
 * fast-forward against the cycle-stepped loop.
 *
 * Every simulated backend accepts fast_forward=false, which runs the
 * one-cycle-at-a-time loop that walks every placement attempt, so
 * this bench measures the speedup on the machine it runs on: the
 * same large-d sweep grid (all three simulated communication
 * schemes) executes twice — stepped loop, then event-driven — and
 * BENCH_perf.json records per-point and total wall clock, simulated
 * cycles per second, the fast-forward skip ratio, and whether the
 * two modes stayed bit-identical (they must; a mismatch makes the
 * bench exit nonzero so CI catches it).
 *
 * The grid then runs twice more in event-driven mode to price the
 * observability hooks: once against the null TraceRecorder (every
 * emission site takes its branch, events vanish at the no-op
 * virtual) and once under a full TraceSession with all three sinks
 * rendered.  BENCH_perf.json records both overheads; results must
 * stay bit-identical across all four passes.
 *
 * Run with --smoke for a reduced grid (CI-friendly).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.h"

#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/sweep.h"
#include "obs/trace.h"

namespace {

using namespace qsurf;

/** The large-d perf grid over the three simulated schemes. */
engine::SweepGrid
perfGrid(bool smoke)
{
    engine::SweepGrid grid;
    if (smoke) {
        grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
        grid.distances = {15, 25};
    } else {
        // GSE is the deep serial workload (stabilization waits and
        // the level-scan cost dominate); SQ is the contended one
        // (escalations, detours, drops).  Together they exercise
        // every hot path at the large distances the analytic
        // design-space sweeps reach.
        grid.apps = {{apps::AppKind::GSE, {16, 16}, ""},
                     {apps::AppKind::SQ, {8, 6}, ""}};
        grid.distances = {63, 99};
    }
    grid.backends = {engine::backends::double_defect,
                     engine::backends::planar,
                     engine::backends::surgery_sim};
    grid.policies = {6};
    grid.base.seed = 1234;
    return grid;
}

/** Bit-identity between modes, ignoring the ff_* reporting extras. */
bool
sameResults(const engine::Metrics &a, const engine::Metrics &b)
{
    if (a.schedule_cycles != b.schedule_cycles
        || a.critical_path_cycles != b.critical_path_cycles
        || a.physical_qubits != b.physical_qubits
        || a.seconds != b.seconds)
        return false;
    for (const auto &[name, v] : a.extras)
        if (name.rfind("ff_", 0) != 0 && v != b.extra(name))
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;

    engine::SweepGrid grid = perfGrid(smoke);
    engine::SweepOptions opts;
    // Single-threaded on purpose: per-point wall_ms is the measured
    // quantity, and pool contention would pollute it.  The global
    // new/delete hook above attributes a heap-allocation count to
    // every point alongside its wall clock (exact at one thread).
    opts.num_threads = 1;
    opts.heap_alloc_counter = [] { return benchhook::heapAllocs(); };

    // Baseline first: the cycle-stepped loop, with the scratch arena
    // disabled so its allocation column is plain heap behaviour.
    grid.base.fast_forward = false;
    engine::SweepOptions baseline_opts = opts;
    baseline_opts.use_arena = false;
    auto baseline = engine::SweepDriver().run(grid, baseline_opts);
    grid.base.fast_forward = true;
    auto fast = engine::SweepDriver().run(grid, opts);
    fatalIf(baseline.size() != fast.size(),
            "mode runs expanded to different grids");

    // Tracing overhead, both tiers: the null recorder (pure hook
    // dispatch cost) and a full recording session with the sinks
    // rendered to memory.
    obs::NullTraceRecorder null_recorder;
    grid.base.trace = &null_recorder;
    auto null_traced = engine::SweepDriver().run(grid, opts);
    grid.base.trace = nullptr;

    obs::TraceSession session;
    engine::SweepOptions traced_opts = opts;
    traced_opts.trace = &session;
    auto traced = engine::SweepDriver().run(grid, traced_opts);
    {
        std::ostringstream sinks;
        session.writeTrace(sinks);
        session.writeHeatmap(sinks);
        session.writeMetrics(sinks);
    }

    Table t(std::string("Engine perf: event-driven fast-forward vs "
                        "cycle-stepped baseline")
            + (smoke ? " (smoke grid)" : ""));
    t.header({"app", "backend", "d", "sim cycles", "base ms",
              "ff ms", "speedup", "skip ratio", "Mcyc/s"});

    double base_total_ms = 0;
    double fast_total_ms = 0;
    double null_total_ms = 0;
    double traced_total_ms = 0;
    uint64_t base_allocs = 0;
    uint64_t fast_allocs = 0;
    uint64_t arena_allocs = 0;
    bool identical = true;
    for (size_t i = 0; i < fast.size(); ++i) {
        const engine::SweepPoint &b = baseline[i];
        const engine::SweepPoint &f = fast[i];
        identical = identical && sameResults(b.metrics, f.metrics)
            && sameResults(f.metrics, null_traced[i].metrics)
            && sameResults(f.metrics, traced[i].metrics);
        base_total_ms += b.wall_ms;
        fast_total_ms += f.wall_ms;
        null_total_ms += null_traced[i].wall_ms;
        traced_total_ms += traced[i].wall_ms;
        base_allocs += b.heap_allocs;
        fast_allocs += f.heap_allocs;
        arena_allocs += f.arena_allocs;
        double speedup =
            f.wall_ms > 0 ? b.wall_ms / f.wall_ms : 0.0;
        t.addRow(f.app_name, f.backend, f.metrics.code_distance,
                 f.metrics.schedule_cycles,
                 Table::fixed(b.wall_ms, 2),
                 Table::fixed(f.wall_ms, 2),
                 Table::fixed(speedup, 1),
                 Table::fixed(f.metrics.extra("ff_skip_ratio"), 3),
                 Table::fixed(f.simCyclesPerSec() / 1e6, 1));
    }
    t.print(std::cout);

    double total_speedup =
        fast_total_ms > 0 ? base_total_ms / fast_total_ms : 0.0;
    double null_overhead = fast_total_ms > 0
        ? null_total_ms / fast_total_ms - 1.0
        : 0.0;
    double traced_overhead = fast_total_ms > 0
        ? traced_total_ms / fast_total_ms - 1.0
        : 0.0;

    Table to("Tracing overhead (event-driven grid)");
    to.header({"mode", "total ms", "overhead"});
    to.addRow("untraced", Table::fixed(fast_total_ms, 1), "-");
    to.addRow("null recorder", Table::fixed(null_total_ms, 1),
              Table::fixed(null_overhead * 100, 1) + "%");
    to.addRow("full session", Table::fixed(traced_total_ms, 1),
              Table::fixed(traced_overhead * 100, 1) + "%");
    to.print(std::cout);

    const char *json_path = "BENCH_perf.json";
    {
        std::ofstream os(json_path);
        fatalIf(!os, "cannot open '", json_path, "' for writing");
        JsonWriter j(os);
        j.beginObject();
        j.field("title",
                "engine perf: fast-forward vs cycle-stepped baseline");
        j.field("smoke", smoke);
        j.field("identical_across_modes", identical);
        j.field("baseline_wall_ms_total", base_total_ms);
        j.field("fast_forward_wall_ms_total", fast_total_ms);
        j.field("speedup_total", total_speedup);
        j.field("null_trace_wall_ms_total", null_total_ms);
        j.field("null_trace_overhead", null_overhead);
        j.field("traced_wall_ms_total", traced_total_ms);
        j.field("traced_overhead", traced_overhead);
        j.field("baseline_heap_allocs_total", base_allocs);
        j.field("heap_allocs_total", fast_allocs);
        j.field("arena_allocs_total", arena_allocs);
        j.key("results");
        j.beginArray();
        for (size_t i = 0; i < fast.size(); ++i) {
            const engine::SweepPoint &b = baseline[i];
            const engine::SweepPoint &f = fast[i];
            j.beginObject();
            j.field("app", f.app_name);
            j.field("backend", f.backend);
            j.field("code_distance", f.metrics.code_distance);
            j.field("schedule_cycles", f.metrics.schedule_cycles);
            j.field("baseline_wall_ms", b.wall_ms);
            j.field("fast_forward_wall_ms", f.wall_ms);
            j.field("speedup",
                    f.wall_ms > 0 ? b.wall_ms / f.wall_ms : 0.0);
            j.field("ff_skipped_cycles",
                    f.metrics.extra("ff_skipped_cycles"));
            j.field("ff_skip_ratio",
                    f.metrics.extra("ff_skip_ratio"));
            j.field("sim_cycles_per_sec", f.simCyclesPerSec());
            j.field("baseline_sim_cycles_per_sec",
                    b.simCyclesPerSec());
            j.field("baseline_heap_allocs", b.heap_allocs);
            j.field("heap_allocs", f.heap_allocs);
            j.field("arena_allocs", f.arena_allocs);
            j.field("arena_bytes", f.arena_bytes);
            j.endObject();
        }
        j.endArray();
        j.endObject();
        os << "\n";
    }

    std::cout << "total: baseline " << Table::fixed(base_total_ms, 1)
              << " ms, fast-forward "
              << Table::fixed(fast_total_ms, 1) << " ms, speedup "
              << Table::fixed(total_speedup, 1) << "x, modes "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";
    std::cout << "allocations: baseline " << base_allocs
              << " heap, optimized " << fast_allocs << " heap + "
              << arena_allocs << " arena\n";
    std::cout << "wrote " << json_path << "\n";

    if (!identical) {
        std::cerr << "ERROR: fast-forward diverged from the "
                     "cycle-stepped baseline\n";
        return 1;
    }
    return 0;
}
