/**
 * @file
 * Prepare-cache and compile-service tests: single-flight and LRU
 * semantics of PrepareCache, artifact-key separation across seeds /
 * objectives / distances, and the load-bearing guarantee of the
 * whole subsystem — cached and uncached paths are bit-identical, at
 * any thread count, on every simulated backend.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
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

TEST(ArtifactKeys, SeparateSeedObjectiveAndDistance)
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

    other = fx.item;
    other.config.code_distance = 7;
    EXPECT_NE(surgery.artifactKey(other), base);

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

TEST(ArtifactKeys, PlanarKeyIgnoresSeedButNotDistance)
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
    EXPECT_NE(planar.artifactKey(other), base);
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

TEST(CompileService, BatchesQueuedDuplicates)
{
    service::PrepareCache cache;
    service::CompileService::Options opts;
    opts.num_threads = 1; // One worker => duplicates stay queued.
    opts.cache = &cache;
    service::CompileService svc(opts);

    // Occupy the worker with a slow request, then queue duplicates
    // behind it; they are served as one batch.
    service::CompileRequest slow;
    slow.app = apps::AppKind::IsingSemi;
    slow.gen = {16, 4};
    slow.backend = engine::backends::surgery_sim;
    slow.config.code_distance = 3;
    auto blocker = svc.submit(slow);

    service::CompileRequest dup;
    dup.app = apps::AppKind::SQ;
    dup.gen = {8, 1};
    dup.backend = engine::backends::surgery_sim;
    dup.config.code_distance = 3;
    std::vector<std::future<service::CompileResponse>> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(svc.submit(dup));

    ASSERT_TRUE(blocker.get().ok());
    std::vector<service::CompileResponse> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    for (const service::CompileResponse &r : responses) {
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(
            sameMetrics(r.metrics, responses[0].metrics));
        EXPECT_GE(r.batch_size, 1u);
    }
    service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_LE(stats.batches, 4u);
}

TEST(CompileService, BatchKeySeparatesDamagedFabrics)
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

    // Same program and backend; only the fabric damage differs, and
    // it is part of the machine artifact.
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

    // The queue is empty now: each request runs alone.
    service::CompileResponse alone_clean = svc.compile(clean);
    service::CompileResponse alone_damaged = svc.compile(damaged);
    EXPECT_TRUE(sameMetrics(queued_clean.metrics, alone_clean.metrics));
    EXPECT_TRUE(
        sameMetrics(queued_damaged.metrics, alone_damaged.metrics))
        << "queued " << queued_damaged.metrics.schedule_cycles
        << " cycles, alone "
        << alone_damaged.metrics.schedule_cycles;
    EXPECT_NE(alone_clean.metrics.schedule_cycles,
              alone_damaged.metrics.schedule_cycles);
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
