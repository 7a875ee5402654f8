/**
 * @file
 * compile-cold: toolflow::runQasm on seeded QASM programs, from two
 * closed-loop clients, with every request compiled cold.
 *
 * The programs are wide and sparse: 192-511 qubits in a chain of
 * CNOT pairs plus sparse long-range chords, on randomly relabelled
 * qubits, and every fourth one routes half its CNOTs through a module
 * so flatten does work.  Each runs on the double-defect, planar and
 * hybrid backends with the corridor layout objective.  The
 * simulations are short, so the prepare stages - QASM, frontend and
 * above all layout - are the latency.
 *
 * A pass compiles every program once; the prepare cache is cleared
 * before each pass, so no request ever hits it, and a pass overfills
 * it, so it also evicts.  Repeating passes lets each program's
 * latency be its fastest pass, as in the sweep workloads.
 */

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "engine/registry.h"
#include "qasm/flatten.h"
#include "qasm/parser.h"
#include "service/artifact.h"
#include "toolflow/toolflow.h"

namespace qsurf::bench {

namespace {

/** Programs per pass: their results are the design quality, and
 *  their ~1000 prepare artifacts overfill the 512-entry cache. */
constexpr uint64_t kPassPrograms = 192;

/** Programs the traced run replays through the layers. */
constexpr uint64_t kReplayPrograms = 48;

/** Shape strata: program i takes stratum i % kStrata, so every run
 *  sees the same spread of sizes whatever the seed. */
constexpr uint64_t kStrata = 16;

struct Program
{
    std::string source;
    int distance = 5;
    uint64_t layout_seed = 1;
};

Program
makeProgram(const Options &opts, uint64_t i)
{
    std::mt19937_64 rng(engine::mixSeed(opts.seed, i));
    uint64_t s = i % kStrata;
    int base = opts.smoke ? 32 : 192;
    int step = opts.smoke ? 2 : 20;
    int n = base + static_cast<int>(s) * step
        + static_cast<int>(rng() % static_cast<uint64_t>(step));
    int layers = 2 + static_cast<int>(s % 2);
    bool modules = s % 4 == 3;

    std::ostringstream os;
    os << "# compile-cold program " << i << "\nqbit q[" << n << "];\n";
    if (modules)
        os << "module pair(a, b) {\n    CNOT a, b;\n    S b;\n}\n";
    for (int q = 0; q < n; q += 4)
        os << "H q[" << q << "];\n";
    // A chain of CNOT pairs plus sparse long-range chords, on randomly
    // relabelled qubits: the interaction graph is wide and sparse, and
    // layout has to find its locality.
    std::vector<int> label(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q)
        label[static_cast<size_t>(q)] = q;
    std::shuffle(label.begin(), label.end(), rng);
    auto cnot = [&](int a, int b, bool via_module) {
        os << (via_module ? "pair" : "CNOT") << " q["
           << label[static_cast<size_t>(a)] << "], q["
           << label[static_cast<size_t>(b % n)] << "];\n";
    };
    for (int l = 0; l < layers; ++l) {
        if (l < 2) {
            for (int q = l; q + 1 < n; q += 2)
                cnot(q, q + 1, modules && q % 4 == l);
        } else {
            for (int q = static_cast<int>(rng() % 16); q < n; q += 16)
                cnot(q, q + n / 2, false);
        }
    }
    return {os.str(), 5 + 2 * static_cast<int>(s % 3), rng()};
}

toolflow::Config
configFor(const Program &prog)
{
    toolflow::Config cfg;
    cfg.backends = {engine::backends::double_defect,
                    engine::backends::planar,
                    engine::backends::hybrid_mixed};
    cfg.layout_objective = 1;
    cfg.force_distance = prog.distance;
    cfg.seed = prog.layout_seed;
    return cfg;
}

/**
 * Replay program @p i through the public layers, building the
 * WorkItem exactly as toolflow::run does: qasm::parse and
 * qasm::flatten (qasm), cachedProgram (frontend), the artifact fetch
 * (cache, then layout) and Backend::run (sched).
 */
std::vector<engine::Metrics>
replayProgram(uint64_t i, const Program &prog,
              service::PrepareCache &cache, Tracer *tracer,
              LayerCounters &counters)
{
    toolflow::Config cfg = configFor(prog);
    Tracer::Scope request(tracer, "request", i);
    circuit::Circuit logical;
    {
        Tracer::Scope s(tracer, "qasm", i, request.index());
        logical = qasm::flatten(qasm::parse(prog.source));
    }
    counters.qasm_bytes += prog.source.size();
    std::shared_ptr<const service::CachedProgram> program;
    {
        Tracer::Scope s(tracer, "frontend", i, request.index());
        program = service::cachedProgram(cache, logical, cfg.decompose,
                                         cfg.run_peephole);
    }
    counters.gates_out += static_cast<uint64_t>(program->circ.size());

    engine::WorkItem item;
    item.app = cfg.app;
    item.app_name = logical.name().empty() ? "circuit" : logical.name();
    item.circuit = &program->circ;
    item.circuit_fingerprint = program->fingerprint;
    item.config.tech = cfg.tech;
    item.config.code_distance = cfg.force_distance;
    item.config.policy = static_cast<int>(cfg.policy);
    item.config.epr_window_steps = cfg.epr_window_steps;
    item.config.num_simd_regions = cfg.num_simd_regions;
    item.config.hybrid_arbiter = cfg.hybrid_arbiter;
    item.config.layout_objective = cfg.layout_objective;
    item.config.lane_spacing = cfg.lane_spacing;
    item.config.seed = cfg.seed;

    std::vector<engine::Metrics> out;
    const engine::Registry &registry = engine::Registry::global();
    for (const std::string &name : cfg.backends) {
        const engine::Backend &backend = registry.get(name);
        backend.prepare(item);
        auto artifact = tracedFetch(cache, backend, item, tracer, i,
                                    request.index(), counters);
        out.push_back(tracedRun(backend, item, artifact.get(), tracer,
                                i, request.index(), counters));
    }
    return out;
}

} // namespace

Result
runCompileCold(const Options &opts)
{
    Result r;
    r.metrics["setup_s"] =
        probeSetupSeconds(opts, opts.smoke ? 3 : kSetupLaunches);

    const uint64_t n = opts.smoke ? 8 : kPassPrograms;
    std::vector<Program> programs;
    for (uint64_t i = 0; i < n; ++i)
        programs.push_back(makeProgram(opts, i));

    service::PrepareCache &cache = service::PrepareCache::global();
    service::CacheStats traffic;
    std::vector<std::vector<double>> times(n);
    std::vector<std::vector<engine::Metrics>> first(n);
    std::vector<double> pass_s;
    int min_passes = opts.smoke || opts.trace ? 1 : 3;
    double budget = opts.trace ? opts.seconds / 3 : opts.seconds;
    int target = 1;
    for (int pass = 0; pass < target; ++pass) {
        cache.clear();
        service::CacheStats before = cache.stats();
        // Each program is compiled by exactly one client per pass, so
        // the per-program slots race with nothing.
        std::vector<std::string> errors(n);
        std::vector<std::vector<engine::Metrics>> results(n);
        std::atomic<uint64_t> next{0};
        auto client = [&] {
            for (uint64_t i; (i = next.fetch_add(1)) < n;) {
                toolflow::Config cfg = configFor(programs[i]);
                auto t0 = Clock::now();
                try {
                    results[i] = toolflow::runQasm(programs[i].source, cfg)
                                     .backend_metrics;
                    times[i].push_back(msBetween(t0, Clock::now()));
                } catch (const std::exception &e) {
                    errors[i] = e.what();
                }
            }
        };
        auto start = Clock::now();
        std::thread second(client);
        client();
        second.join();
        pass_s.push_back(secondsSince(start));
        if (pass == 0) {
            // One pass's traffic: the same whatever the pass count.
            service::CacheStats after = cache.stats();
            traffic.hits = after.hits - before.hits;
            traffic.misses = after.misses - before.misses;
            traffic.evictions = after.evictions - before.evictions;
        }

        for (uint64_t i = 0; i < n; ++i) {
            ++r.attempted;
            std::string what = "program " + std::to_string(i);
            if (!errors[i].empty()) {
                r.fail(what + ": " + errors[i]);
                continue;
            }
            if (results[i].size() != 3) {
                r.fail(what + ": missing backend results");
                continue;
            }
            for (const engine::Metrics &m : results[i]) {
                std::string err =
                    invariantError(m, programs[i].distance);
                if (!err.empty()) {
                    r.fail(what + " on " + m.backend + ": " + err);
                    break;
                }
            }
            if (pass == 0) {
                first[i] = results[i];
                for (const engine::Metrics &m : results[i])
                    r.mix(canonicalMetrics(m));
            } else {
                for (size_t b = 0; b < results[i].size(); ++b)
                    if (canonicalMetrics(results[i][b])
                        != canonicalMetrics(first[i][b])) {
                        r.fail(what + " differs from its first pass");
                        break;
                    }
            }
        }
        if (pass == 0)
            target = passesFor(budget, pass_s[0], min_passes);
    }

    if (opts.trace) {
        // The layered replay must reproduce toolflow::runQasm.
        const uint64_t replayed = std::min(n, kReplayPrograms);
        Tracer tracer;
        LayerCounters scratch, counters;
        double overhead = tracedOverhead(tracer, [&](Tracer *t) {
            service::PrepareCache replay_cache;
            auto start = Clock::now();
            for (uint64_t i = 0; i < replayed; ++i) {
                std::vector<engine::Metrics> got = replayProgram(
                    i, programs[i], replay_cache, t,
                    t ? counters : scratch);
                bool same = got.size() == first[i].size();
                for (size_t b = 0; same && b < got.size(); ++b)
                    same = canonicalMetrics(got[b])
                        == canonicalMetrics(first[i][b]);
                if (!same)
                    r.fail("replay of program " + std::to_string(i)
                           + " disagrees with toolflow::runQasm");
            }
            return secondsSince(start);
        });
        counters.cache = traffic;
        recordLayers(r, tracer, counters);
        r.metrics["trace.overhead"] = overhead;
        auto layers = tracer.layers();
        double request_s = layers["request"].total_s;
        r.gate("layout_share",
               request_s > 0 ? layers["layout"].self_s / request_s : 0.0,
               true, 0.50);
        r.gate("cache.hit_ratio", r.metrics["cache.hit_ratio"], false,
               0.10);
        tracer.writeChrome(opts.trace_file, "compile-cold", 3);
    } else {
        std::vector<double> fastest;
        std::vector<engine::Metrics> quality;
        for (uint64_t i = 0; i < n; ++i) {
            if (!times[i].empty())
                fastest.push_back(
                    *std::min_element(times[i].begin(), times[i].end()));
            quality.insert(quality.end(), first[i].begin(),
                           first[i].end());
        }
        r.metrics["ops_per_s"] = static_cast<double>(n)
            / *std::min_element(pass_s.begin(), pass_s.end());
        r.note(std::to_string(n) + " programs x "
               + std::to_string(pass_s.size())
               + " passes, 2 closed-loop clients; throughput from the "
                 "fastest pass, latency from each program's fastest");
        recordLatency(r, fastest, 0.90, "op_p50_ms", "op_tail_ms");
        recordQuality(r, quality);
    }
    r.metrics["peak_rss_mb"] = peakRssMiB();
    return r;
}

} // namespace qsurf::bench
