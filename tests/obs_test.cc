/**
 * @file
 * Observability tests: tracing must never change results, the event
 * stream must be execution-mode invariant, and the three sinks must
 * be bit-identical at any sweep thread count.
 *
 *  - Every simulated backend re-run with a recorder attached
 *    produces field-identical metrics (tracing is passive);
 *  - fast-forward and stepped execution emit the same canonical
 *    event stream (modulo the FastForwardSkip events themselves),
 *    including under tight escalation timeouts and factory
 *    starvation — the configurations where the stall-event gate
 *    actually earns its keep;
 *  - a traced sweep writes byte-identical trace/heatmap/metrics
 *    files at 1, 2 and 8 worker threads;
 *  - the heatmap accumulator and the metrics registry keep their
 *    local invariants (bucket sums, percentile ordering, merge
 *    commutativity).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "circuit/circuit.h"
#include "circuit/decompose.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace qsurf::obs {
namespace {

TEST(Obs, StallEventGate)
{
    // True exactly at the passes both execution modes run: first
    // attempt and the escalation-threshold crossings.
    EXPECT_TRUE(stallEventGate(0, 8, 16));
    EXPECT_TRUE(stallEventGate(8, 8, 16));
    EXPECT_TRUE(stallEventGate(16, 8, 16));
    EXPECT_FALSE(stallEventGate(1, 8, 16));
    EXPECT_FALSE(stallEventGate(7, 8, 16));
    EXPECT_FALSE(stallEventGate(9, 8, 16));
    EXPECT_FALSE(stallEventGate(15, 8, 16));
    EXPECT_FALSE(stallEventGate(17, 8, 16));
}

TEST(Obs, EventKindNamesAreStableAndDistinct)
{
    std::set<std::string> seen;
    for (int k = 0; k < num_event_kinds; ++k) {
        const char *name =
            eventKindName(static_cast<EventKind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_FALSE(std::string(name).empty());
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate event name " << name;
    }
}

TEST(Obs, DerivedPath)
{
    EXPECT_EQ(derivedPath("trace.json", "heatmap"),
              "trace.heatmap.json");
    EXPECT_EQ(derivedPath("out/t", "heatmap"),
              "out/t.heatmap.json");
}

TEST(Obs, HistogramPercentilesOrderedAndBounded)
{
    MetricsRegistry reg;
    for (int i = 1; i <= 100; ++i)
        reg.observe("h", i);
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistogramSummary &h = snap.histograms[0].second;
    EXPECT_EQ(h.count, 100u);
    EXPECT_DOUBLE_EQ(h.sum, 5050.0);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 100.0);
    EXPECT_LE(h.p50, h.p95);
    EXPECT_LE(h.p95, h.p99);
    EXPECT_LE(h.p99, h.max);
    // Percentiles are bucket lower bounds: at most one 4-per-octave
    // bucket (ratio 2^0.25 ~ 1.19) below the true rank value.
    EXPECT_LE(h.p50, 50.0);
    EXPECT_GE(h.p50, 50.0 / 1.2);
    EXPECT_LE(h.p95, 95.0);
    EXPECT_GE(h.p95, 95.0 / 1.2);
}

TEST(Obs, RegistryMergeIsCommutative)
{
    MetricsRegistry odd, even, all;
    for (int i = 1; i <= 200; ++i) {
        MetricsRegistry &half = (i % 2) ? odd : even;
        half.observe("h", i * 0.37);
        half.inc("c", static_cast<uint64_t>(i));
        all.observe("h", i * 0.37);
        all.inc("c", static_cast<uint64_t>(i));
    }
    MetricsRegistry ab, ba;
    ab.merge(odd);
    ab.merge(even);
    ba.merge(even);
    ba.merge(odd);

    auto json = [](const MetricsRegistry &r) {
        std::ostringstream os;
        writeMetricsJson(os, r.snapshot());
        return os.str();
    };
    EXPECT_EQ(json(ab), json(ba));
    EXPECT_EQ(json(ab), json(all));
}

// ------------------------------------------------- scheduler streams

/** Simulated (circuit-driven) backends from the global registry. */
std::vector<std::string>
simulatedBackends()
{
    std::vector<std::string> out;
    for (const std::string &name :
         engine::Registry::global().names())
        if (engine::Registry::global().get(name).needsCircuit())
            out.push_back(name);
    return out;
}

/** A named RunConfig stress mutation (mirrors the cross-backend
 *  harness scenarios). */
struct Scenario
{
    const char *name;
    void (*apply)(engine::RunConfig &);
};

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> table = {
        {"baseline", [](engine::RunConfig &) {}},
        {"tight-timeouts",
         [](engine::RunConfig &c) {
             c.adapt_timeout = 2;
             c.bfs_timeout = 3;
             c.drop_timeout = 5;
         }},
        {"factory-starvation",
         [](engine::RunConfig &c) {
             c.magic_production_cycles = 60;
             c.magic_buffer_capacity = 1;
         }},
        {"damaged-fabric",
         [](engine::RunConfig &c) { c.defect_density = 0.1; }},
    };
    return table;
}

engine::WorkItem
itemFor(const circuit::Circuit *circ, const Scenario &s)
{
    engine::WorkItem item;
    item.app = apps::AppKind::SQ;
    item.app_name = circ->name();
    item.circuit = circ;
    item.config.code_distance = 5;
    item.config.seed = 99;
    s.apply(item.config);
    return item;
}

/** Canonical stream of @p rec without the FastForwardSkip markers. */
std::vector<TraceEvent>
comparableStream(RunRecorder &rec)
{
    rec.finish();
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : rec.events())
        if (e.kind != EventKind::FastForwardSkip)
            out.push_back(e);
    return out;
}

TEST(Obs, TracingNeverChangesResults)
{
    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 2}));
    engine::Registry &registry = engine::Registry::global();
    for (const Scenario &s : scenarios()) {
        for (const std::string &name : simulatedBackends()) {
            const engine::Backend &b = registry.get(name);
            std::string what =
                name + " / " + s.name;

            engine::WorkItem item = itemFor(&circ, s);
            engine::Metrics off = b.run(item);

            RunRecorder rec(0, circ.name(), name);
            item.config.trace = &rec;
            engine::Metrics on = b.run(item);

            EXPECT_EQ(on.schedule_cycles, off.schedule_cycles)
                << what;
            EXPECT_EQ(on.critical_path_cycles,
                      off.critical_path_cycles)
                << what;
            EXPECT_EQ(on.physical_qubits, off.physical_qubits)
                << what;
            EXPECT_EQ(on.extras, off.extras) << what;
            EXPECT_FALSE(rec.events().empty()) << what;
        }
    }
}

TEST(Obs, EventStreamInvariantAcrossExecutionModes)
{
    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 2}));
    engine::Registry &registry = engine::Registry::global();
    for (const Scenario &s : scenarios()) {
        for (const std::string &name : simulatedBackends()) {
            const engine::Backend &b = registry.get(name);
            std::string what = name + std::string(" / ") + s.name;

            engine::WorkItem item = itemFor(&circ, s);
            RunRecorder stepped_rec(0, circ.name(), name);
            item.config.fast_forward = false;
            item.config.trace = &stepped_rec;
            b.run(item);

            RunRecorder ff_rec(0, circ.name(), name);
            item.config.fast_forward = true;
            item.config.trace = &ff_rec;
            b.run(item);

            std::vector<TraceEvent> stepped =
                comparableStream(stepped_rec);
            std::vector<TraceEvent> ff = comparableStream(ff_rec);
            ASSERT_EQ(stepped.size(), ff.size()) << what;
            for (size_t i = 0; i < stepped.size(); ++i) {
                if (stepped[i] == ff[i])
                    continue;
                ADD_FAILURE()
                    << what << ": event " << i << " diverged: "
                    << "stepped {cycle " << stepped[i].cycle << ", "
                    << eventKindName(stepped[i].kind) << ", op "
                    << stepped[i].op << "} vs ff {cycle "
                    << ff[i].cycle << ", "
                    << eventKindName(ff[i].kind) << ", op "
                    << ff[i].op << "}";
                break;
            }
        }
    }
}

TEST(Obs, HeatmapBucketsSumToLinkTotals)
{
    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 2}));
    const engine::Backend &b = engine::Registry::global().get(
        engine::backends::surgery_sim);
    engine::WorkItem item = itemFor(&circ, scenarios().front());
    RunRecorder rec(0, circ.name(),
                    engine::backends::surgery_sim);
    item.config.trace = &rec;
    b.run(item);
    rec.finish();

    const HeatmapAccumulator &hm = rec.heatmap();
    ASSERT_TRUE(hm.configured());
    double grand_total = 0;
    for (int x = 0; x < hm.width(); ++x)
        for (int y = 0; y < hm.height(); ++y)
            for (int dir = 0; dir < 2; ++dir) {
                double from_buckets = 0;
                for (int bk = 0;
                     bk < HeatmapAccumulator::max_buckets; ++bk)
                    from_buckets += hm.at(x, y, dir, bk);
                EXPECT_DOUBLE_EQ(from_buckets,
                                 hm.linkTotal(x, y, dir))
                    << "link (" << x << ", " << y << ", " << dir
                    << ")";
                grand_total += from_buckets;
            }
    EXPECT_GT(grand_total, 0.0)
        << "a surgery run should hold mesh links";
}

// ---------------------------------------------------- session sinks

TEST(Obs, SweepSinksBitIdenticalAcrossThreadCounts)
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = simulatedBackends();
    grid.policies = {6};
    grid.distances = {3};
    grid.base.seed = 1234;

    engine::SweepOptions off_opts;
    off_opts.num_threads = 2;
    std::vector<engine::SweepPoint> off =
        engine::SweepDriver().run(grid, off_opts);

    std::string first_trace, first_heatmap, first_metrics;
    for (int threads : {1, 2, 8}) {
        TraceSession session;
        engine::SweepOptions opts;
        opts.num_threads = threads;
        opts.trace = &session;
        std::vector<engine::SweepPoint> on =
            engine::SweepDriver().run(grid, opts);

        // Results bit-identical to the untraced sweep.
        ASSERT_EQ(on.size(), off.size());
        for (size_t i = 0; i < off.size(); ++i) {
            EXPECT_EQ(on[i].metrics.schedule_cycles,
                      off[i].metrics.schedule_cycles)
                << off[i].backend;
            EXPECT_EQ(on[i].metrics.extras, off[i].metrics.extras)
                << off[i].backend;
        }
        EXPECT_EQ(session.runs(), grid.points());

        std::ostringstream trace_os, heatmap_os, metrics_os;
        session.writeTrace(trace_os);
        session.writeHeatmap(heatmap_os);
        session.writeMetrics(metrics_os);
        EXPECT_FALSE(trace_os.str().empty());
        if (first_trace.empty()) {
            first_trace = trace_os.str();
            first_heatmap = heatmap_os.str();
            first_metrics = metrics_os.str();
            continue;
        }
        EXPECT_EQ(trace_os.str(), first_trace)
            << "trace sink diverged at " << threads << " threads";
        EXPECT_EQ(heatmap_os.str(), first_heatmap)
            << "heatmap sink diverged at " << threads
            << " threads";
        EXPECT_EQ(metrics_os.str(), first_metrics)
            << "metrics sink diverged at " << threads
            << " threads";
    }
}

} // namespace
} // namespace qsurf::obs
