/**
 * @file
 * Prepare-cache and compile-service tests: single-flight and LRU
 * semantics of PrepareCache, artifact-key separation across seeds
 * and objectives (one artifact serving every distance), and the
 * load-bearing guarantee of the whole subsystem — cached and
 * uncached paths are bit-identical, at any thread count, on every
 * simulated backend.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "apps/apps.h"
#include "circuit/decompose.h"
#include "common/logging.h"
#include "engine/sweep.h"
#include "obs/trace.h"
#include "service/artifact.h"
#include "service/cache.h"
#include "service/service.h"
#include "service/shard.h"
#include "toolflow/toolflow.h"

namespace qsurf {
namespace {

using service::CacheStats;
using service::PrepareCache;

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

PrepareCache::Value
intValue(int v)
{
    return std::static_pointer_cast<const void>(
        std::make_shared<const int>(v));
}

TEST(PrepareCache, HitMissContainsAndStats)
{
    PrepareCache cache;
    EXPECT_FALSE(cache.contains("k"));
    int builds = 0;
    auto build = [&] {
        ++builds;
        return intValue(7);
    };
    PrepareCache::Value first = cache.getOrBuild("k", build);
    PrepareCache::Value again = cache.getOrBuild("k", build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), again.get());
    EXPECT_EQ(*std::static_pointer_cast<const int>(first), 7);
    EXPECT_TRUE(cache.contains("k"));

    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRatio(), 0.5);
}

TEST(PrepareCache, SingleFlightBuildsOnce)
{
    PrepareCache::Options opts;
    opts.shards = 1;
    PrepareCache cache(opts);
    std::atomic<int> builds{0};
    auto build = [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        builds.fetch_add(1);
        return intValue(42);
    };
    constexpr int callers = 8;
    std::vector<std::thread> pool;
    std::vector<PrepareCache::Value> values(callers);
    for (int t = 0; t < callers; ++t)
        pool.emplace_back([&, t] {
            values[static_cast<size_t>(t)] =
                cache.getOrBuild("shared", build);
        });
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(builds.load(), 1);
    for (const PrepareCache::Value &v : values)
        EXPECT_EQ(v.get(), values[0].get());
    CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, static_cast<uint64_t>(callers - 1));
}

TEST(PrepareCache, LruEvictsLeastRecentlyUsed)
{
    PrepareCache::Options opts;
    opts.capacity = 2;
    opts.shards = 1; // One global LRU order, pinned by this test.
    PrepareCache cache(opts);
    cache.getOrBuild("a", [&] { return intValue(1); });
    cache.getOrBuild("b", [&] { return intValue(2); });
    // Touch "a" so "b" is the least recently used...
    cache.getOrBuild("a", [&] { return intValue(1); });
    // ...and a third insert evicts it.
    cache.getOrBuild("c", [&] { return intValue(3); });

    EXPECT_TRUE(cache.contains("a"));
    EXPECT_FALSE(cache.contains("b"));
    EXPECT_TRUE(cache.contains("c"));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(PrepareCache, BuilderExceptionPropagatesAndEntryRetries)
{
    PrepareCache cache;
    int attempts = 0;
    auto failing = [&]() -> PrepareCache::Value {
        ++attempts;
        throw std::runtime_error("builder failed");
    };
    EXPECT_THROW(cache.getOrBuild("k", failing),
                 std::runtime_error);
    EXPECT_FALSE(cache.contains("k"));
    // The failed entry is gone; a later call retries the build.
    PrepareCache::Value v =
        cache.getOrBuild("k", [&] { return intValue(5); });
    EXPECT_EQ(*std::static_pointer_cast<const int>(v), 5);
    EXPECT_EQ(attempts, 1);
}

TEST(PrepareCache, ClearDropsReadyEntriesAndKeepsCounters)
{
    PrepareCache cache;
    cache.getOrBuild("k", [&] { return intValue(1); });
    cache.clear();
    EXPECT_FALSE(cache.contains("k"));
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    int builds = 0;
    cache.getOrBuild("k", [&] {
        ++builds;
        return intValue(1);
    });
    EXPECT_EQ(builds, 1);
}

/** A small decomposed circuit plus a baseline WorkItem. */
struct ItemFixture
{
    circuit::Circuit circ;
    engine::WorkItem item;

    ItemFixture()
        : circ(circuit::decompose(
              apps::generate(apps::AppKind::SQ, {8, 1})))
    {
        item.circuit = &circ;
        item.config.code_distance = 5;
        item.config.seed = 9;
    }
};

TEST(ArtifactKeys, SeparateSeedObjectiveAndLaneNotDistance)
{
    ItemFixture fx;
    const engine::Backend &surgery =
        engine::Registry::global().get(
            engine::backends::surgery_sim);

    std::string base = surgery.artifactKey(fx.item);
    ASSERT_FALSE(base.empty());

    engine::WorkItem other = fx.item;
    other.config.seed = 10;
    EXPECT_NE(surgery.artifactKey(other), base);

    other = fx.item;
    other.config.layout_objective = 2;
    EXPECT_NE(surgery.artifactKey(other), base);

    // The patch machine never reads the distance: one artifact
    // serves every distance of a sweep.
    other = fx.item;
    other.config.code_distance = 7;
    EXPECT_EQ(surgery.artifactKey(other), base);

    other = fx.item;
    other.config.lane_spacing = 2;
    EXPECT_NE(surgery.artifactKey(other), base);

    // Policies 2+ share the optimized layout; 0/1 the naive one.
    other = fx.item;
    other.config.policy = 2;
    EXPECT_EQ(surgery.artifactKey(other), base);
    other.config.policy = 0;
    EXPECT_NE(surgery.artifactKey(other), base);
}

TEST(ArtifactKeys, SurgeryAndHybridShareOnePatchMachine)
{
    ItemFixture fx;
    engine::Registry &registry = engine::Registry::global();
    const engine::Backend &surgery =
        registry.get(engine::backends::surgery_sim);
    const engine::Backend &hybrid =
        registry.get(engine::backends::hybrid_mixed);
    const engine::Backend &braid =
        registry.get(engine::backends::double_defect);

    // Shared on purpose: the two simulators build identical patch
    // machines, so one cached artifact serves both.
    EXPECT_EQ(surgery.artifactKey(fx.item),
              hybrid.artifactKey(fx.item));
    // The tiled double-defect machine is a different artifact.
    EXPECT_NE(braid.artifactKey(fx.item),
              surgery.artifactKey(fx.item));

    // And the shared artifact really is accepted by both.
    PrepareCache cache;
    auto artifact = service::fetchArtifact(cache, surgery, fx.item);
    ASSERT_NE(artifact, nullptr);
    engine::Metrics direct = hybrid.run(fx.item);
    engine::Metrics shared = hybrid.run(fx.item, artifact.get());
    EXPECT_TRUE(sameMetrics(direct, shared));
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ArtifactKeys, PlanarKeyIgnoresSeedAndDistance)
{
    ItemFixture fx;
    const engine::Backend &planar =
        engine::Registry::global().get(engine::backends::planar);
    std::string base = planar.artifactKey(fx.item);
    ASSERT_FALSE(base.empty());

    engine::WorkItem other = fx.item;
    other.config.seed = 10;
    EXPECT_EQ(planar.artifactKey(other), base);
    other = fx.item;
    other.config.code_distance = 7;
    EXPECT_EQ(planar.artifactKey(other), base);
}

TEST(ArtifactKeys, OneMachineServesEveryDistance)
{
    // A key without the distance is only sound if no builder reads
    // it: one artifact built at d = 3 must reproduce the inline run
    // at every distance, auto (0) included, on a clean fabric, a
    // damaged one, a laned corridor layout and a capacity-bound
    // SIMD machine.
    ItemFixture fx;
    engine::Registry &registry = engine::Registry::global();
    std::vector<engine::RunConfig> configs(4, fx.item.config);
    configs[1].defect_density = 0.1;
    configs[1].defect_seed = 4;
    configs[2].layout_objective = 2;
    configs[2].lane_spacing = 2;
    configs[3].region_capacity = 3;
    for (const char *name :
         {engine::backends::double_defect, engine::backends::surgery_sim,
          engine::backends::hybrid_mixed, engine::backends::planar}) {
        const engine::Backend &backend = registry.get(name);
        for (size_t c = 0; c < configs.size(); ++c) {
            engine::WorkItem built = fx.item;
            built.config = configs[c];
            built.config.code_distance = 3;
            auto artifact = backend.buildArtifact(built);
            ASSERT_NE(artifact, nullptr) << name;
            for (int d : {3, 5, 7, 9, 0}) {
                engine::WorkItem item = built;
                item.config.code_distance = d;
                EXPECT_EQ(backend.artifactKey(item),
                          backend.artifactKey(built))
                    << name << " config " << c << " d=" << d;
                EXPECT_TRUE(sameMetrics(backend.run(item),
                                        backend.run(item,
                                                    artifact.get())))
                    << name << " config " << c << " d=" << d;
            }
        }
    }
}

TEST(ArtifactKeys, ModelBackendsAreNotCacheable)
{
    ItemFixture fx;
    fx.item.config.kq = 1e6;
    PrepareCache cache;
    const engine::Backend &model = engine::Registry::global().get(
        engine::backends::surgery_model);
    EXPECT_TRUE(model.artifactKey(fx.item).empty());
    EXPECT_EQ(service::fetchArtifact(cache, model, fx.item),
              nullptr);
    EXPECT_EQ(cache.stats().misses, 0u);
}

/** The small simulated-backend grid the identity tests sweep. */
engine::SweepGrid
identityGrid()
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {engine::backends::double_defect,
                     engine::backends::planar,
                     engine::backends::surgery_sim,
                     engine::backends::hybrid_mixed};
    grid.layout_objectives = {0, 2};
    grid.distances = {3, 5};
    grid.base.seed = 77;
    return grid;
}

TEST(SweepCache, CachedMatchesUncachedAtEveryThreadCount)
{
    engine::SweepGrid grid = identityGrid();

    engine::SweepOptions opts;
    opts.use_cache = false;
    opts.num_threads = 1;
    auto uncached = engine::SweepDriver().run(grid, opts);

    for (int threads : {1, 2, 8}) {
        PrepareCache cache;
        engine::SweepOptions cached_opts;
        cached_opts.use_cache = true;
        cached_opts.cache = &cache;
        cached_opts.num_threads = threads;
        auto cached = engine::SweepDriver().run(grid, cached_opts);
        ASSERT_EQ(cached.size(), uncached.size());
        for (size_t i = 0; i < cached.size(); ++i)
            EXPECT_TRUE(sameMetrics(uncached[i].metrics,
                                    cached[i].metrics))
                << "point " << i << " at " << threads
                << " threads";
        EXPECT_GT(cache.stats().misses, 0u);
    }
}

TEST(SweepCache, WarmRepeatIsBitIdenticalAndHits)
{
    engine::SweepGrid grid = identityGrid();
    PrepareCache cache;
    engine::SweepOptions opts;
    opts.cache = &cache;
    opts.num_threads = 2;

    auto cold = engine::SweepDriver().run(grid, opts);
    uint64_t cold_misses = cache.stats().misses;
    auto warm = engine::SweepDriver().run(grid, opts);

    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(
            sameMetrics(cold[i].metrics, warm[i].metrics));
    // The warm pass built nothing new.
    EXPECT_EQ(cache.stats().misses, cold_misses);
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(SweepCache, CallerCircuitAppPointMatchesGeneratedApp)
{
    engine::SweepGrid generated;
    generated.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    generated.backends = {engine::backends::surgery_sim};
    generated.distances = {5};

    engine::SweepGrid caller = generated;
    caller.apps = {engine::AppPoint(
        std::make_shared<const circuit::Circuit>(
            apps::generate(apps::AppKind::SQ, {8, 2})))};

    engine::SweepOptions opts;
    auto from_app = engine::SweepDriver().run(generated, opts);
    auto from_circ = engine::SweepDriver().run(caller, opts);
    ASSERT_EQ(from_app.size(), from_circ.size());
    for (size_t i = 0; i < from_app.size(); ++i)
        EXPECT_TRUE(sameMetrics(from_app[i].metrics,
                                from_circ[i].metrics));
}

TEST(CompileService, MatchesDirectBackendRun)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 2;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 2};
    req.backend = engine::backends::surgery_sim;
    req.config.code_distance = 5;
    req.config.seed = 3;

    service::CompileResponse cold = svc.compile(req);
    ASSERT_TRUE(cold.ok()) << cold.error;
    service::CompileResponse warm = svc.compile(req);
    ASSERT_TRUE(warm.ok()) << warm.error;

    circuit::Circuit circ = circuit::decompose(
        apps::generate(apps::AppKind::SQ, {8, 2}));
    engine::WorkItem item;
    item.app = req.app;
    item.app_name = apps::appSpec(req.app).name;
    item.circuit = &circ;
    item.config = req.config;
    engine::Metrics direct =
        engine::Registry::global()
            .get(engine::backends::surgery_sim)
            .run(item);

    EXPECT_TRUE(sameMetrics(direct, cold.metrics));
    EXPECT_TRUE(sameMetrics(direct, warm.metrics));
    EXPECT_GT(svc.stats().cache.hits, 0u);
}

TEST(CompileService, ServesModelBackendsFromTheCachedProgram)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest req;
    req.app = apps::AppKind::SHA1;
    req.gen = {8, 1};
    req.backend = engine::backends::surgery_model;
    service::CompileResponse r = svc.compile(req);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.metrics.schedule_cycles, 0u);
}

/** Forwards to a registered backend and counts its runs. */
class CountingBackend : public engine::Backend
{
  public:
    CountingBackend(const std::string &name, std::atomic<int> &runs)
        : inner(engine::Registry::global().get(name)), runs(runs)
    {
    }

    std::string name() const override { return inner.name(); }
    qec::CodeKind code() const override { return inner.code(); }
    bool needsCircuit() const override { return inner.needsCircuit(); }

    void
    prepare(const engine::WorkItem &item) const override
    {
        inner.prepare(item);
    }

    engine::Metrics
    run(const engine::WorkItem &item) const override
    {
        return run(item, nullptr);
    }

    std::string
    artifactKey(const engine::WorkItem &item) const override
    {
        return inner.artifactKey(item);
    }

    std::shared_ptr<const engine::PreparedArtifact>
    buildArtifact(const engine::WorkItem &item) const override
    {
        return inner.buildArtifact(item);
    }

    engine::Metrics
    run(const engine::WorkItem &item,
        const engine::PreparedArtifact *artifact) const override
    {
        runs.fetch_add(1);
        return inner.run(item, artifact);
    }

  private:
    const engine::Backend &inner;
    std::atomic<int> &runs;
};

TEST(CompileService, ConcurrentDuplicatesRunTheBackendOnce)
{
    service::CompileRequest dup;
    dup.app = apps::AppKind::SQ;
    dup.gen = {8, 1};
    dup.backend = engine::backends::surgery_sim;
    dup.config.code_distance = 3;

    for (int threads : {1, 2, 8}) {
        std::atomic<int> runs{0};
        engine::Registry registry;
        registry.add(std::make_unique<CountingBackend>(dup.backend, runs));
        service::PrepareCache cache;
        // Warm the program and machine artifact, so the result is
        // the only entry the requests below can miss.
        service::CompileRequest traced = dup;
        obs::TraceRecorder recorder;
        traced.config.trace = &recorder;
        service::CompileService::Options opts;
        opts.num_threads = threads;
        opts.cache = &cache;
        opts.registry = &registry;
        service::CompileService svc(opts);
        ASSERT_TRUE(svc.compile(traced).ok());
        ASSERT_EQ(runs.load(), 1);
        CacheStats before = cache.stats();

        constexpr int copies = 8;
        std::vector<std::future<service::CompileResponse>> futures;
        for (int i = 0; i < copies; ++i)
            futures.push_back(svc.submit(dup));
        std::vector<service::CompileResponse> responses;
        for (auto &f : futures)
            responses.push_back(f.get());

        EXPECT_EQ(runs.load(), 2) << threads << " threads";
        CacheStats after = cache.stats();
        EXPECT_EQ(after.misses, before.misses + 1)
            << threads << " threads";
        // The other copies hit the result; the one run hit the
        // program and the artifact.
        EXPECT_EQ(after.hits, before.hits + (copies - 1) + 2)
            << threads << " threads";
        for (const service::CompileResponse &r : responses) {
            ASSERT_TRUE(r.ok()) << r.error;
            EXPECT_TRUE(sameMetrics(r.metrics, responses[0].metrics));
            EXPECT_EQ(r.batch_size, 1u);
        }
        service::ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.requests, copies + 1u);
        EXPECT_EQ(stats.served, copies + 1u);
    }
}

TEST(CompileService, MemoHitSkipsTheRunAndMatchesIt)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 2};
    req.backend = engine::backends::double_defect;
    req.config.code_distance = 5;
    service::CompileResponse cold = svc.compile(req);
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_GT(cold.run_ms, 0);
    EXPECT_TRUE(cache.contains(service::resultKey(req)));

    // The label is a display name no backend reads: still a hit.
    req.label = "renamed";
    service::CompileResponse warm = svc.compile(req);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_EQ(warm.run_ms, 0);
    EXPECT_TRUE(sameMetrics(cold.metrics, warm.metrics));
}

TEST(CompileService, MemoSeparatesDamagedFabrics)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1; // One worker => the pair stays queued.
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest slow;
    slow.app = apps::AppKind::IsingSemi;
    slow.gen = {16, 4};
    slow.backend = engine::backends::surgery_sim;
    slow.config.code_distance = 3;
    auto blocker = svc.submit(slow);

    // Same program and backend; only the fabric damage differs.
    service::CompileRequest clean;
    clean.app = apps::AppKind::SQ;
    clean.gen = {8, 2};
    clean.backend = engine::backends::double_defect;
    clean.config.code_distance = 5;
    service::CompileRequest damaged = clean;
    damaged.config.defect_density = 0.10;
    auto clean_future = svc.submit(clean);
    auto damaged_future = svc.submit(damaged);

    ASSERT_TRUE(blocker.get().ok());
    service::CompileResponse queued_clean = clean_future.get();
    service::CompileResponse queued_damaged = damaged_future.get();
    ASSERT_TRUE(queued_clean.ok()) << queued_clean.error;
    ASSERT_TRUE(queued_damaged.ok()) << queued_damaged.error;
    EXPECT_EQ(queued_clean.metrics.schedule_cycles, 5368u);
    EXPECT_EQ(queued_damaged.metrics.schedule_cycles, 7139u);

    // Repeats are memo hits, each of its own entry.
    service::CompileResponse again_clean = svc.compile(clean);
    service::CompileResponse again_damaged = svc.compile(damaged);
    EXPECT_EQ(again_clean.run_ms, 0);
    EXPECT_EQ(again_damaged.run_ms, 0);
    EXPECT_TRUE(sameMetrics(queued_clean.metrics, again_clean.metrics));
    EXPECT_TRUE(
        sameMetrics(queued_damaged.metrics, again_damaged.metrics));
}

TEST(CompileService, ResultKeyCoversEveryInputButLabelAndTrace)
{
    service::CompileRequest base;
    base.app = apps::AppKind::SQ;
    base.gen = {8, 2};
    base.backend = engine::backends::double_defect;

    using Edit = void (*)(service::CompileRequest &);
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"app", [](auto &r) { r.app = apps::AppKind::GSE; }},
        {"problem_size", [](auto &r) { r.gen.problem_size = 9; }},
        {"max_iterations", [](auto &r) { r.gen.max_iterations = 3; }},
        {"circuit",
         [](auto &r) {
             r.circuit = std::make_shared<const circuit::Circuit>(
                 apps::generate(r.app, r.gen));
         }},
        {"rz_sequence_length",
         [](auto &r) { r.decompose.rz_sequence_length = 41; }},
        {"rz_t_fraction",
         [](auto &r) { r.decompose.rz_t_fraction = 0.25; }},
        {"expand_swap", [](auto &r) { r.decompose.expand_swap = false; }},
        {"run_peephole", [](auto &r) { r.run_peephole = true; }},
        {"backend",
         [](auto &r) { r.backend = engine::backends::surgery_sim; }},
        {"p_physical", [](auto &r) { r.config.tech.p_physical = 2e-3; }},
        {"t_two_qubit_ns",
         [](auto &r) { r.config.tech.t_two_qubit_ns += 1; }},
        {"single_qubit_speedup",
         [](auto &r) { r.config.tech.single_qubit_speedup += 1; }},
        {"t_measure_ns", [](auto &r) { r.config.tech.t_measure_ns += 1; }},
        {"code_distance", [](auto &r) { r.config.code_distance = 7; }},
        {"policy", [](auto &r) { r.config.policy = 2; }},
        {"epr_window_steps",
         [](auto &r) { r.config.epr_window_steps = 8; }},
        {"epr_bandwidth", [](auto &r) { r.config.epr_bandwidth = 3; }},
        {"num_simd_regions",
         [](auto &r) { r.config.num_simd_regions = 2; }},
        {"region_capacity",
         [](auto &r) { r.config.region_capacity = 64; }},
        {"kq", [](auto &r) { r.config.kq = 1e6; }},
        {"fast_forward", [](auto &r) { r.config.fast_forward = false; }},
        {"magic_production_cycles",
         [](auto &r) { r.config.magic_production_cycles = 10; }},
        {"magic_buffer_capacity",
         [](auto &r) { r.config.magic_buffer_capacity = 5; }},
        {"adapt_timeout", [](auto &r) { r.config.adapt_timeout = 5; }},
        {"bfs_timeout", [](auto &r) { r.config.bfs_timeout = 9; }},
        {"drop_timeout", [](auto &r) { r.config.drop_timeout = 17; }},
        {"max_cycles", [](auto &r) { r.config.max_cycles = 99; }},
        {"hybrid_arbiter", [](auto &r) { r.config.hybrid_arbiter = 1; }},
        {"layout_objective",
         [](auto &r) { r.config.layout_objective = 2; }},
        {"lane_spacing", [](auto &r) { r.config.lane_spacing = 3; }},
        {"defect_density",
         [](auto &r) { r.config.defect_density = 0.05; }},
        {"defect_seed", [](auto &r) { r.config.defect_seed = 4; }},
        {"defect_spec",
         [](auto &r) { r.config.defect_spec = "{\"dead_tiles\": []}"; }},
        {"seed", [](auto &r) { r.config.seed = 2; }},
        {"seed beyond 2^53",
         [](auto &r) { r.config.seed = (uint64_t{1} << 53) + 1; }},
        {"seed at 2^53", [](auto &r) { r.config.seed = uint64_t{1} << 53; }},
    };

    const std::string base_key = service::resultKey(base);
    std::map<std::string, const char *> seen = {{base_key, "base"}};
    for (const auto &[name, edit] : edits) {
        service::CompileRequest r = base;
        edit(r);
        std::string key = service::resultKey(r);
        ASSERT_FALSE(key.empty()) << name;
        auto [it, fresh] = seen.emplace(key, name);
        EXPECT_TRUE(fresh) << name << " collides with " << it->second;
    }

    service::CompileRequest observed = base;
    observed.label = "another name";
    obs::TraceRecorder recorder;
    observed.config.trace = &recorder;
    EXPECT_EQ(service::resultKey(observed), base_key);

    // JSON writes a non-finite number as null, which would alias:
    // such a request gets no key, so it is never memoized.
    service::CompileRequest inf = base;
    inf.config.tech.t_two_qubit_ns =
        std::numeric_limits<double>::infinity();
    EXPECT_EQ(service::resultKey(inf), "");
}

/** A recorder that counts the events of the runs it traces. */
struct CountingRecorder : obs::TraceRecorder
{
    std::atomic<uint64_t> events{0};

    void record(const obs::TraceEvent &) override { events.fetch_add(1); }
};

TEST(CompileService, TracedRequestBypassesTheMemo)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 1};
    req.backend = engine::backends::surgery_sim;
    req.config.code_distance = 3;
    service::CompileResponse untraced = svc.compile(req);
    ASSERT_TRUE(untraced.ok()) << untraced.error;
    ASSERT_TRUE(cache.contains(service::resultKey(req)));

    // The result is memoized, yet each traced request runs the
    // backend and records its events.
    CountingRecorder first, second;
    for (CountingRecorder *rec : {&first, &second}) {
        service::CompileRequest traced = req;
        traced.config.trace = rec;
        CacheStats before = cache.stats();
        service::CompileResponse r = svc.compile(traced);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_GT(rec->events.load(), 0u);
        EXPECT_TRUE(sameMetrics(r.metrics, untraced.metrics));
        // Program and artifact fetches only, both hits.
        EXPECT_EQ(cache.stats().misses, before.misses);
    }
    EXPECT_EQ(first.events.load(), second.events.load());
}

TEST(CompileService, FailedRequestIsNotStored)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 2;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest bad;
    bad.app = apps::AppKind::SQ;
    bad.gen = {8, 1};
    bad.backend = engine::backends::double_defect;
    bad.config.code_distance = -1; // Rejected by Backend::prepare.
    const std::string key = service::resultKey(bad);
    for (int attempt = 0; attempt < 2; ++attempt) {
        uint64_t misses = cache.stats().misses;
        service::CompileResponse r = svc.compile(bad);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error.find("code distance"), std::string::npos)
            << r.error;
        EXPECT_FALSE(cache.contains(key));
        // Every attempt looks the result up afresh and misses.
        EXPECT_GT(cache.stats().misses, misses);
    }
}

TEST(CompileService, ReportsErrorsPerRequestAndStaysUp)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    service::CompileService svc(opts);

    service::CompileRequest bad;
    bad.backend = "no-such-backend";
    service::CompileResponse r = svc.compile(bad);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("no-such-backend"), std::string::npos);

    service::CompileRequest good;
    good.app = apps::AppKind::SQ;
    good.gen = {8, 1};
    good.config.code_distance = 3;
    EXPECT_TRUE(svc.compile(good).ok());
}

TEST(CompileService, NonIntegerDefectSpecIsAnErrorResponse)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1;
    opts.cache = &cache;
    service::CompileService svc(opts);

    for (const char *bad : {"1e300", "-1e300", "2.7"}) {
        service::CompileRequest r;
        r.app = apps::AppKind::SQ;
        r.gen = {8, 1};
        r.backend = engine::backends::double_defect;
        r.config.code_distance = 3;
        r.config.defect_spec =
            std::string("{\"dead_tiles\": [[") + bad + ", 0]]}";
        service::CompileResponse resp = svc.compile(r);
        EXPECT_FALSE(resp.ok()) << bad;
        EXPECT_NE(resp.error.find("not an int"), std::string::npos)
            << resp.error;
    }

    service::CompileRequest good;
    good.app = apps::AppKind::SQ;
    good.gen = {8, 1};
    good.config.code_distance = 3;
    good.config.defect_spec = "{\"dead_tiles\": [[1, 0]]}";
    EXPECT_TRUE(svc.compile(good).ok()) << "the service stays up";
}

TEST(Toolflow, CachedRunMatchesUncached)
{
    circuit::Circuit logical =
        apps::generate(apps::AppKind::GSE, {8, 2});
    toolflow::Config cached_cfg;
    cached_cfg.use_cache = true;
    toolflow::Config uncached_cfg;
    uncached_cfg.use_cache = false;

    toolflow::Report uncached = toolflow::run(logical, uncached_cfg);
    toolflow::Report first = toolflow::run(logical, cached_cfg);
    toolflow::Report warm = toolflow::run(logical, cached_cfg);

    for (const toolflow::Report *r : {&first, &warm}) {
        EXPECT_EQ(r->counts.total, uncached.counts.total);
        EXPECT_EQ(r->code_distance, uncached.code_distance);
        ASSERT_EQ(r->backend_metrics.size(),
                  uncached.backend_metrics.size());
        for (size_t i = 0; i < r->backend_metrics.size(); ++i)
            EXPECT_TRUE(sameMetrics(r->backend_metrics[i],
                                    uncached.backend_metrics[i]));
    }
}

TEST(Toolflow, CachedQasmMatchesUncached)
{
    std::string source = apps::sampleHierarchicalQasm();
    toolflow::Config cached_cfg;
    toolflow::Config uncached_cfg;
    uncached_cfg.use_cache = false;

    toolflow::Report uncached =
        toolflow::runQasm(source, uncached_cfg);
    toolflow::Report cold = toolflow::runQasm(source, cached_cfg);
    toolflow::Report warm = toolflow::runQasm(source, cached_cfg);

    for (const toolflow::Report *r : {&cold, &warm}) {
        EXPECT_EQ(r->counts.total, uncached.counts.total);
        ASSERT_EQ(r->backend_metrics.size(),
                  uncached.backend_metrics.size());
        for (size_t i = 0; i < r->backend_metrics.size(); ++i)
            EXPECT_TRUE(sameMetrics(r->backend_metrics[i],
                                    uncached.backend_metrics[i]));
    }
}

/** Small mixed grid for the sharding tests: a generated app plus a
 *  caller-built circuit (forked workers must inherit the latter —
 *  it cannot be re-made from an AppKind). */
engine::SweepGrid
shardGrid()
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 engine::AppPoint(
                     std::make_shared<const circuit::Circuit>(
                         apps::generate(apps::AppKind::GSE, {8, 2})),
                     "gse-caller")};
    grid.backends = {engine::backends::surgery_sim};
    grid.distances = {3, 5};
    grid.base.seed = 21;
    return grid;
}

TEST(ShardedSweep, MergedRowsMatchSingleProcessAtEveryWidth)
{
    setQuiet(true);
    engine::SweepGrid grid = shardGrid();
    engine::SweepOptions opts;
    opts.num_threads = 1;
    opts.stream_rows = false;
    std::string expected = engine::canonicalSweepRows(
        engine::SweepDriver().run(grid, opts));

    for (int workers : {1, 2, 4}) {
        service::ShardOptions shard;
        shard.workers = workers;
        shard.sweep.num_threads = 1;
        shard.idle_timeout_sec = 120;
        std::vector<engine::SweepPoint> merged =
            service::runShardedSweep(grid, shard);
        EXPECT_EQ(engine::canonicalSweepRows(merged), expected)
            << workers << " workers";
    }
}

TEST(ShardedSweep, RejectsParentSideOptionsOnWorkers)
{
    setQuiet(true);
    service::ShardOptions shard;
    shard.workers = 0;
    EXPECT_THROW(service::runShardedSweep(shardGrid(), shard),
                 FatalError);

    shard.workers = 1;
    shard.sweep.point_filter = [](size_t) { return true; };
    EXPECT_THROW(service::runShardedSweep(shardGrid(), shard),
                 FatalError);
}

TEST(SweepRows, StreamedFileRoundTripsAndResumes)
{
    setQuiet(true);
    engine::SweepGrid grid = shardGrid();
    std::string path = testing::TempDir() + "/qsurf_rows.jsonl";
    std::remove(path.c_str());

    engine::SweepOptions opts;
    opts.num_threads = 1;
    opts.rows_path = path;
    std::vector<engine::SweepPoint> full =
        engine::SweepDriver().run(grid, opts);
    std::string expected = engine::canonicalSweepRows(full);

    // The streamed file loads back: every row accounted for.
    {
        std::vector<engine::SweepPoint> loaded =
            engine::expandSweepPoints(grid);
        std::vector<uint8_t> done(loaded.size(), 0);
        EXPECT_EQ(engine::loadSweepRows(path, grid, "", loaded,
                                        done),
                  full.size());
        EXPECT_EQ(engine::canonicalSweepRows(loaded), expected);
    }

    // Truncate to the header, one complete row, and a torn line —
    // the partial file a killed sweep leaves behind.
    {
        std::ifstream in(path);
        std::string header, row;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_TRUE(std::getline(in, row));
        in.close();
        std::ofstream out(path, std::ios::trunc);
        out << header << "\n" << row << "\n"
            << row.substr(0, row.size() / 2); // No newline: torn.
    }

    // Resume completes the missing points and the merged results
    // are identical to the uninterrupted run.
    engine::SweepOptions resume_opts = opts;
    resume_opts.resume = true;
    std::vector<engine::SweepPoint> resumed =
        engine::SweepDriver().run(grid, resume_opts);
    EXPECT_EQ(engine::canonicalSweepRows(resumed), expected);

    // And the rewritten row stream is complete again.
    std::vector<engine::SweepPoint> loaded =
        engine::expandSweepPoints(grid);
    std::vector<uint8_t> done(loaded.size(), 0);
    EXPECT_EQ(engine::loadSweepRows(path, grid, "", loaded, done),
              full.size());
    std::remove(path.c_str());
}

TEST(SweepRows, ShardedStreamMatchesSingleProcessStream)
{
    setQuiet(true);
    engine::SweepGrid grid = shardGrid();
    std::string single_path =
        testing::TempDir() + "/qsurf_rows_single.jsonl";
    std::string sharded_path =
        testing::TempDir() + "/qsurf_rows_sharded.jsonl";
    std::remove(single_path.c_str());
    std::remove(sharded_path.c_str());

    engine::SweepOptions opts;
    opts.num_threads = 1;
    opts.rows_path = single_path;
    engine::SweepDriver().run(grid, opts);

    service::ShardOptions shard;
    shard.workers = 2;
    shard.sweep.num_threads = 1;
    shard.sweep.rows_path = sharded_path;
    shard.idle_timeout_sec = 120;
    service::runShardedSweep(grid, shard);

    // Same grid, same rows: the two streams load to identical
    // results (on-disk order may differ — workers finish
    // asynchronously — so compare the merged documents).
    std::vector<engine::SweepPoint> single_pts =
        engine::expandSweepPoints(grid);
    std::vector<engine::SweepPoint> sharded_pts =
        engine::expandSweepPoints(grid);
    std::vector<uint8_t> done(single_pts.size(), 0);
    ASSERT_EQ(engine::loadSweepRows(single_path, grid, "",
                                    single_pts, done),
              static_cast<size_t>(grid.points()));
    done.assign(sharded_pts.size(), 0);
    ASSERT_EQ(engine::loadSweepRows(sharded_path, grid, "",
                                    sharded_pts, done),
              static_cast<size_t>(grid.points()));
    EXPECT_EQ(engine::canonicalSweepRows(sharded_pts),
              engine::canonicalSweepRows(single_pts));
    std::remove(single_path.c_str());
    std::remove(sharded_path.c_str());
}

TEST(DefaultThreads, EnvOverrideAndFallback)
{
    const char *saved = std::getenv("QSURF_THREADS");
    std::string saved_value = saved ? saved : "";

    ASSERT_EQ(setenv("QSURF_THREADS", "13", 1), 0);
    EXPECT_EQ(engine::defaultThreads(), 13);

    // Invalid values warn and fall back to the interactive clamp.
    ASSERT_EQ(setenv("QSURF_THREADS", "zero", 1), 0);
    int fallback = engine::defaultThreads();
    EXPECT_GE(fallback, 1);
    EXPECT_LE(fallback, 8);
    ASSERT_EQ(setenv("QSURF_THREADS", "0", 1), 0);
    fallback = engine::defaultThreads();
    EXPECT_GE(fallback, 1);
    EXPECT_LE(fallback, 8);

    if (saved)
        setenv("QSURF_THREADS", saved_value.c_str(), 1);
    else
        unsetenv("QSURF_THREADS");
}

} // namespace
} // namespace qsurf
