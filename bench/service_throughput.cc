/**
 * @file
 * Compile-service throughput bench: cold vs warm.
 *
 * Part A replays a mixed request stream (apps x backends x layout
 * objectives x seeds) through a CompileService twice.  The first
 * pass hits a fresh PrepareCache cold — every decompose, seeded
 * layout and result is built from scratch; the repeat passes are
 * warm — every request is answered from the cache's result memo
 * without running its backend.  BENCH_service.json records
 * requests/sec for both, the warm/cold speedup and the cache hit
 * ratio, and the bench exits nonzero if any warm response diverges
 * from its cold twin (they must be bit-identical).
 *
 * Part B runs a Figure-8-style policy x objective sweep through the
 * SweepDriver three ways — cache off, cache cold, cache warm — and
 * cross-checks bit-identity of all three.  Even the cold cached
 * sweep reuses work the uncached one repeats: the policy axis shares
 * seeded layouts, and the surgery and hybrid backends share one
 * patch machine.
 *
 * Run with --smoke for a reduced workload (CI-friendly), and
 * --metrics=PATH to dump the service telemetry registry (request
 * latency histograms, queue depth, per-shard cache traffic) as JSON
 * on exit.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/table.h"
#include "engine/sweep.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "service/service.h"

namespace {

using namespace qsurf;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Full equality of two uniform metric records. */
bool
sameMetrics(const engine::Metrics &a, const engine::Metrics &b)
{
    if (a.backend != b.backend
        || a.code_distance != b.code_distance
        || a.schedule_cycles != b.schedule_cycles
        || a.critical_path_cycles != b.critical_path_cycles
        || a.physical_qubits != b.physical_qubits
        || a.seconds != b.seconds
        || a.extras.size() != b.extras.size())
        return false;
    for (const auto &[name, v] : a.extras)
        if (v != b.extra(name))
            return false;
    return true;
}

/**
 * A wide, sparse probe circuit: a CNOT ring plus long-range chords.
 * Layout optimization over the big interaction graph is the whole
 * cost; the simulation itself is a few hundred gates.  This is the
 * prepare-bound workload a persistent service exists for.
 */
std::shared_ptr<const circuit::Circuit>
makeProbe(int num_qubits)
{
    auto circ = std::make_shared<circuit::Circuit>(
        "probe" + std::to_string(num_qubits), num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        circ->addGate(circuit::GateKind::CNOT, q,
                      (q + 1) % num_qubits);
    for (int q = 0; q < num_qubits; q += 4)
        circ->addGate(circuit::GateKind::CNOT, q,
                      (q + num_qubits / 2) % num_qubits);
    return circ;
}

/**
 * The unique request set of Part A, a mixed stream:
 *  - wide probe circuits on the two patch-machine simulators across
 *    layout objectives and seeds (prepare-bound);
 *  - generated apps on the surgery simulator (run-bound realism);
 *  - analytic-model requests whose cached frontend (generate +
 *    decompose + analyze) dominates their near-instant run.
 */
std::vector<service::CompileRequest>
uniqueRequests(bool smoke)
{
    std::vector<service::CompileRequest> reqs;

    std::vector<int> probe_sizes =
        smoke ? std::vector<int>{96} : std::vector<int>{96, 192};
    std::vector<uint64_t> seeds = smoke
        ? std::vector<uint64_t>{1}
        : std::vector<uint64_t>{1, 2};
    for (int nq : probe_sizes) {
        std::shared_ptr<const circuit::Circuit> probe =
            makeProbe(nq);
        for (uint64_t seed : seeds)
            for (int objective : {0, 2})
                for (const char *backend :
                     {engine::backends::surgery_sim,
                      engine::backends::hybrid_mixed}) {
                    service::CompileRequest req;
                    req.circuit = probe;
                    req.backend = backend;
                    req.config.code_distance = 3;
                    req.config.layout_objective = objective;
                    req.config.seed = seed;
                    reqs.push_back(req);
                }
    }

    for (const char *backend : {engine::backends::surgery_sim,
                                engine::backends::hybrid_mixed}) {
        service::CompileRequest req;
        req.app = apps::AppKind::SQ;
        req.gen = {8, 1};
        req.backend = backend;
        req.config.code_distance = 3;
        reqs.push_back(req);
    }

    std::vector<std::pair<apps::AppKind, apps::GenOptions>> model_apps
        = {{apps::AppKind::SHA1, {16, 1}},
           {apps::AppKind::IsingSemi, {16, 2}}};
    if (!smoke)
        model_apps.push_back({apps::AppKind::GSE, {16, 4}});
    for (const auto &[kind, gen] : model_apps)
        for (const char *backend :
             {engine::backends::surgery_model,
              engine::backends::double_defect_model,
              engine::backends::planar_model}) {
            service::CompileRequest req;
            req.app = kind;
            req.gen = gen;
            req.backend = backend;
            reqs.push_back(req);
        }
    return reqs;
}

/** Submit @p reqs to @p svc and wait; @return the responses. */
std::vector<service::CompileResponse>
replay(service::CompileService &svc,
       const std::vector<service::CompileRequest> &reqs)
{
    std::vector<std::future<service::CompileResponse>> futures;
    futures.reserve(reqs.size());
    for (const service::CompileRequest &req : reqs)
        futures.push_back(svc.submit(req));
    std::vector<service::CompileResponse> responses;
    responses.reserve(reqs.size());
    for (auto &f : futures)
        responses.push_back(f.get());
    return responses;
}

/**
 * The Part B sweep grid (Figure-8 shape: policy x objective over the
 * patch-machine backends).  The wide probe rides along as a
 * caller-built AppPoint: its seeded layout is the dominant cost, and
 * the cache shares it across the policy axis and across the surgery/
 * hybrid pair even on the cold pass.
 */
engine::SweepGrid
sweepGrid(bool smoke)
{
    engine::SweepGrid grid;
    grid.apps = {engine::AppPoint(makeProbe(smoke ? 96 : 192)),
                 engine::AppPoint(apps::AppKind::SQ, {8, 2})};
    grid.backends = {engine::backends::surgery_sim,
                     engine::backends::hybrid_mixed};
    grid.policies = {2, 6};
    grid.layout_objectives = {0, 1, 2};
    grid.distances = {3};
    grid.base.seed = 1234;
    return grid;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bool smoke = false;
    std::string metrics_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--metrics=", 10) == 0)
            metrics_path = argv[i] + 10;
    }

    // ---- Part A: cold vs warm request throughput. ----------------
    std::vector<service::CompileRequest> unique =
        uniqueRequests(smoke);
    const int warm_repeats = smoke ? 2 : 4;

    service::PrepareCache cache;
    service::CompileService::Options svc_opts;
    svc_opts.num_threads = 4;
    svc_opts.cache = &cache;
    service::CompileService svc(svc_opts);

    auto cold_start = Clock::now();
    std::vector<service::CompileResponse> cold =
        replay(svc, unique);
    double cold_sec = secondsSince(cold_start);

    std::vector<service::CompileRequest> warm_reqs;
    for (int r = 0; r < warm_repeats; ++r)
        warm_reqs.insert(warm_reqs.end(), unique.begin(),
                         unique.end());
    auto warm_start = Clock::now();
    std::vector<service::CompileResponse> warm =
        replay(svc, warm_reqs);
    double warm_sec = secondsSince(warm_start);

    bool identical = true;
    for (const service::CompileResponse &r : cold)
        identical = identical && r.ok();
    for (size_t i = 0; i < warm.size(); ++i) {
        const service::CompileResponse &w = warm[i];
        const service::CompileResponse &c =
            cold[i % unique.size()];
        identical = identical && w.ok()
            && sameMetrics(w.metrics, c.metrics);
    }

    double cold_rps =
        cold_sec > 0 ? static_cast<double>(unique.size()) / cold_sec
                     : 0.0;
    double warm_rps = warm_sec > 0
        ? static_cast<double>(warm_reqs.size()) / warm_sec
        : 0.0;
    double warm_speedup = cold_rps > 0 ? warm_rps / cold_rps : 0.0;
    service::ServiceStats stats = svc.stats();

    auto avg = [](const std::vector<service::CompileResponse> &rs,
                  double service::CompileResponse::*field) {
        double total = 0;
        for (const service::CompileResponse &r : rs)
            total += r.*field;
        return rs.empty() ? 0.0
                          : total / static_cast<double>(rs.size());
    };

    Table ta(std::string("Compile service: cold vs warm replay")
             + (smoke ? " (smoke)" : ""));
    ta.header({"pass", "requests", "sec", "req/s", "avg prep ms",
               "avg run ms"});
    ta.addRow("cold", unique.size(), Table::fixed(cold_sec, 3),
              Table::fixed(cold_rps, 1),
              Table::fixed(
                  avg(cold, &service::CompileResponse::prepare_ms),
                  2),
              Table::fixed(
                  avg(cold, &service::CompileResponse::run_ms), 2));
    ta.addRow("warm", warm_reqs.size(), Table::fixed(warm_sec, 3),
              Table::fixed(warm_rps, 1),
              Table::fixed(
                  avg(warm, &service::CompileResponse::prepare_ms),
                  2),
              Table::fixed(
                  avg(warm, &service::CompileResponse::run_ms), 2));
    ta.print(std::cout);
    std::cout << "warm speedup " << Table::fixed(warm_speedup, 1)
              << "x, cache hit ratio "
              << Table::fixed(stats.cache.hitRatio(), 3) << ", "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";

    // ---- Part B: cached vs uncached figure sweep. ----------------
    engine::SweepGrid grid = sweepGrid(smoke);
    engine::SweepOptions sweep_opts;
    sweep_opts.num_threads = 4;

    sweep_opts.use_cache = false;
    auto t0 = Clock::now();
    auto uncached = engine::SweepDriver().run(grid, sweep_opts);
    double uncached_ms = secondsSince(t0) * 1e3;

    service::PrepareCache sweep_cache;
    sweep_opts.use_cache = true;
    sweep_opts.cache = &sweep_cache;
    t0 = Clock::now();
    auto cached_cold = engine::SweepDriver().run(grid, sweep_opts);
    double cached_cold_ms = secondsSince(t0) * 1e3;

    t0 = Clock::now();
    auto cached_warm = engine::SweepDriver().run(grid, sweep_opts);
    double cached_warm_ms = secondsSince(t0) * 1e3;

    bool sweep_identical = uncached.size() == cached_cold.size()
        && uncached.size() == cached_warm.size();
    for (size_t i = 0; sweep_identical && i < uncached.size(); ++i)
        sweep_identical =
            sameMetrics(uncached[i].metrics, cached_cold[i].metrics)
            && sameMetrics(uncached[i].metrics,
                           cached_warm[i].metrics);

    double sweep_speedup =
        cached_warm_ms > 0 ? uncached_ms / cached_warm_ms : 0.0;

    Table tb(std::string("Policy x objective sweep: prepare cache ")
             + "off / cold / warm" + (smoke ? " (smoke)" : ""));
    tb.header({"mode", "points", "ms"});
    tb.addRow("uncached", uncached.size(),
              Table::fixed(uncached_ms, 1));
    tb.addRow("cached cold", cached_cold.size(),
              Table::fixed(cached_cold_ms, 1));
    tb.addRow("cached warm", cached_warm.size(),
              Table::fixed(cached_warm_ms, 1));
    tb.print(std::cout);
    std::cout << "sweep speedup (warm vs uncached) "
              << Table::fixed(sweep_speedup, 1) << "x, "
              << (sweep_identical ? "bit-identical" : "DIVERGED")
              << "\n";

    const char *json_path = "BENCH_service.json";
    {
        std::ofstream os(json_path);
        fatalIf(!os, "cannot open '", json_path, "' for writing");
        JsonWriter j(os);
        j.beginObject();
        j.field("title", "compile service: cold vs warm throughput");
        j.field("smoke", smoke);
        j.field("service_threads",
                static_cast<uint64_t>(svc.threads()));
        j.field("unique_requests",
                static_cast<uint64_t>(unique.size()));
        j.field("warm_requests",
                static_cast<uint64_t>(warm_reqs.size()));
        j.field("cold_sec", cold_sec);
        j.field("warm_sec", warm_sec);
        j.field("cold_requests_per_sec", cold_rps);
        j.field("warm_requests_per_sec", warm_rps);
        j.field("warm_speedup", warm_speedup);
        j.field("identical_cold_vs_warm", identical);
        j.key("service");
        j.beginObject();
        j.field("requests", stats.requests);
        j.field("served", stats.served);
        j.endObject();
        j.key("cache");
        j.beginObject();
        j.field("hits", stats.cache.hits);
        j.field("misses", stats.cache.misses);
        j.field("evictions", stats.cache.evictions);
        j.field("entries", stats.cache.entries);
        j.field("hit_ratio", stats.cache.hitRatio());
        j.endObject();
        j.key("sweep");
        j.beginObject();
        j.field("points",
                static_cast<uint64_t>(uncached.size()));
        j.field("uncached_ms", uncached_ms);
        j.field("cached_cold_ms", cached_cold_ms);
        j.field("cached_warm_ms", cached_warm_ms);
        j.field("speedup_warm_vs_uncached", sweep_speedup);
        j.field("identical_across_modes", sweep_identical);
        j.endObject();
        j.endObject();
        os << "\n";
    }
    std::cout << "wrote " << json_path << "\n";

    if (!metrics_path.empty()) {
        svc.exportTelemetry();
        std::ofstream os(metrics_path);
        fatalIf(!os, "cannot open '", metrics_path,
                "' for writing");
        obs::writeMetricsJson(
            os, obs::MetricsRegistry::global().snapshot());
        std::cout << "wrote " << metrics_path << "\n";
    }

    if (!identical || !sweep_identical) {
        std::cerr << "ERROR: cached results diverged from "
                     "uncached/cold results\n";
        return 1;
    }
    return 0;
}
