/**
 * @file
 * Sweep-driver tests: grid expansion order, validation errors, JSON
 * emission, and — the engine's central guarantee — bit-identical
 * results for a fixed seed at thread counts 1, 2 and 8.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "engine/sweep.h"
#include "service/cache.h"
#include "service/service.h"

namespace qsurf::engine {
namespace {

/** A small but contention-bearing simulation grid. */
SweepGrid
simGrid()
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {backends::double_defect, backends::planar};
    grid.policies = {0, 6};
    grid.distances = {5};
    grid.base.seed = 1234;
    return grid;
}

bool
identical(const Metrics &a, const Metrics &b)
{
    // Exact comparison on purpose: determinism means bit-identical
    // doubles, not approximately-equal ones.
    return a.backend == b.backend && a.code == b.code
        && a.code_distance == b.code_distance
        && a.schedule_cycles == b.schedule_cycles
        && a.critical_path_cycles == b.critical_path_cycles
        && a.physical_qubits == b.physical_qubits
        && a.seconds == b.seconds && a.extras == b.extras;
}

TEST(Sweep, GridPointCountAndExpansionOrder)
{
    SweepGrid grid = simGrid();
    EXPECT_EQ(grid.points(), 8u);

    SweepOptions opts;
    auto results = SweepDriver().run(grid, opts);
    ASSERT_EQ(results.size(), 8u);

    // App-major, backend-innermost.
    EXPECT_EQ(results[0].app_name, "SQ");
    EXPECT_EQ(results[0].backend, backends::double_defect);
    EXPECT_EQ(results[0].policy, 0);
    EXPECT_EQ(results[1].backend, backends::planar);
    EXPECT_EQ(results[2].policy, 6);
    EXPECT_EQ(results[4].app_name, "SHA-1");
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_GT(results[i].metrics.schedule_cycles, 0u);
    }
}

TEST(Sweep, DeterministicAcrossThreadCounts)
{
    SweepGrid grid = simGrid();

    SweepOptions opts1, opts2, opts8;
    opts1.num_threads = 1;
    opts2.num_threads = 2;
    opts8.num_threads = 8;

    SweepDriver driver;
    auto r1 = driver.run(grid, opts1);
    auto r2 = driver.run(grid, opts2);
    auto r8 = driver.run(grid, opts8);

    ASSERT_EQ(r1.size(), r2.size());
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_TRUE(identical(r1[i].metrics, r2[i].metrics))
            << "1-thread vs 2-thread mismatch at point " << i;
        EXPECT_TRUE(identical(r1[i].metrics, r8[i].metrics))
            << "1-thread vs 8-thread mismatch at point " << i;
    }
}

TEST(Sweep, SeedChangesResults)
{
    SweepGrid grid = simGrid();
    auto r1 = SweepDriver().run(grid);
    grid.base.seed = 99;
    auto r2 = SweepDriver().run(grid);
    // Layout tie-breaking is seeded, so at least one contended point
    // should move.  (All points moving identically would be a seed
    // plumbing bug.)
    bool any_different = false;
    for (size_t i = 0; i < r1.size(); ++i)
        any_different = any_different
            || !identical(r1[i].metrics, r2[i].metrics);
    EXPECT_TRUE(any_different);
}

TEST(Sweep, PolicyAxisSharesOneSeededLayout)
{
    // Figure 6 compares policies on the same machine: seeds vary
    // per application point, never along the policy axis, so every
    // optimized-layout policy must see an identical layout.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {backends::double_defect};
    grid.policies = {3, 6};
    grid.distances = {5};
    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].metrics.extra("layout_cost"),
                     results[1].metrics.extra("layout_cost"));
}

TEST(Sweep, ArtifactsAreBuiltOncePerProgram)
{
    // A point's layout seed depends on its program alone and no
    // machine reads the distance, so a sweep builds each program's
    // tiled, patch and SIMD machines once for every distance:
    // 2 programs + 2 x 3 machines.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::GSE, {8, 2}, ""}};
    grid.backends = {backends::double_defect, backends::planar,
                     backends::surgery_sim, backends::hybrid_mixed};
    grid.distances = {3, 5, 7};

    service::PrepareCache cache;
    SweepOptions cached;
    cached.num_threads = 1;
    cached.cache = &cache;
    auto with_cache = SweepDriver().run(grid, cached);
    EXPECT_EQ(cache.stats().misses, 8u);

    SweepOptions uncached;
    uncached.num_threads = 1;
    uncached.use_cache = false;
    EXPECT_EQ(canonicalSweepRows(with_cache),
              canonicalSweepRows(SweepDriver().run(grid, uncached)));
}

TEST(Sweep, DamagedHybridSweepIsThreadInvariant)
{
    // Every distance shares one damaged patch machine, so four
    // threads price hybrid ops against one defect map at once.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = {backends::hybrid_mixed};
    grid.arbiters = {0, 1};
    grid.distances = {3, 5, 7, 9};
    grid.defects = {0.1};
    grid.base.defect_seed = 4;

    std::string rows[2];
    for (int t : {0, 1}) {
        service::PrepareCache cache;
        SweepOptions opts;
        opts.num_threads = t ? 4 : 1;
        opts.cache = &cache;
        rows[t] = canonicalSweepRows(SweepDriver().run(grid, opts));
        EXPECT_EQ(cache.stats().misses, 2u);
    }
    EXPECT_EQ(rows[0], rows[1]);
}

TEST(Sweep, ModelBackendsSweepSizesWithoutCircuits)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {}, ""}};
    grid.backends = {backends::planar_model,
                     backends::double_defect_model};
    grid.sizes = {1e4, 1e8, 1e12};
    grid.base.tech = qec::tech_points::futureOptimistic();

    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 6u);
    // Time grows with computation size for both codes.
    EXPECT_LT(results[0].metrics.seconds, results[2].metrics.seconds);
    EXPECT_LT(results[2].metrics.seconds, results[4].metrics.seconds);
    EXPECT_LT(results[1].metrics.seconds, results[3].metrics.seconds);
}

TEST(Sweep, ModelBackendsDeriveTheSizeFromTheCircuit)
{
    // sizes = {0} means "derive KQ from the program": the model row
    // must get the circuit and match a compile service response for
    // the same request, at any thread count.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {6, 2}, ""}};
    grid.backends = {backends::double_defect,
                     backends::double_defect_model};
    grid.distances = {5};

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {6, 2};
    req.backend = backends::double_defect_model;
    req.config.code_distance = 5;
    service::CompileService compile;
    service::CompileResponse want = compile.submit(req).get();
    ASSERT_TRUE(want.ok()) << want.error;
    EXPECT_EQ(want.metrics.extra("kq"), 666.0);

    for (int threads : {1, 2}) {
        SweepOptions opts;
        opts.num_threads = threads;
        auto rows = SweepDriver().run(grid, opts);
        ASSERT_EQ(rows.size(), 2u);
        EXPECT_EQ(rows[1].backend, backends::double_defect_model);
        EXPECT_EQ(rows[1].metrics.extra("kq"), 666.0)
            << threads << " threads";
        EXPECT_TRUE(identical(rows[1].metrics, want.metrics))
            << threads << " threads";
    }
}

TEST(Sweep, EmptyAxesAreFatal)
{
    SweepGrid grid = simGrid();
    grid.backends.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);

    grid = simGrid();
    grid.apps.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);

    grid = simGrid();
    grid.policies.clear();
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, UnknownBackendIsFatalBeforeAnyWork)
{
    SweepGrid grid = simGrid();
    grid.backends = {"no-such-backend"};
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, BadPolicyIsFatalInPrepare)
{
    SweepGrid grid = simGrid();
    grid.policies = {42};
    EXPECT_THROW(SweepDriver().run(grid), FatalError);
}

TEST(Sweep, WritesParseableJson)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {backends::double_defect};
    grid.distances = {5};

    std::string path = "sweep_test_output.json";
    service::PrepareCache cache;
    SweepOptions opts;
    opts.json_path = path;
    opts.title = "sweep \"test\"";
    opts.cache = &cache;
    auto results = SweepDriver().run(grid, opts);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    std::remove(path.c_str());
    std::remove((path + ".rows").c_str());

    for (const char *needle :
         {"\"title\"", "\"sweep \\\"test\\\"\"", "\"results\"",
          "\"backend\"", "\"double-defect\"", "\"schedule_cycles\"",
          "\"extras\"", "\"mesh_utilization\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;

    std::ostringstream direct;
    writeSweepJson(direct, "sweep \"test\"", results, &cache);
    EXPECT_EQ(json, direct.str());
}

TEST(Sweep, DefaultThreadsInRange)
{
    int t = defaultThreads();
    EXPECT_GE(t, 1);
    EXPECT_LE(t, 8);
}

TEST(Sweep, LabelOverridesAppName)
{
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, "my-workload"}};
    grid.backends = {backends::planar};
    grid.distances = {5};
    auto results = SweepDriver().run(grid);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].app_name, "my-workload");
}

/** @return @p line with the number after @p key replaced by
 *  @p value (the compact writer's `"key": number` shape). */
std::string
withField(const std::string &line, const std::string &key,
          const std::string &value)
{
    std::string tag = "\"" + key + "\": ";
    size_t at = line.find(tag);
    EXPECT_NE(at, std::string::npos) << key;
    at += tag.size();
    size_t end = line.find_first_of(",}", at);
    return line.substr(0, at) + value + line.substr(end);
}

TEST(SweepRows, IntegerFieldsAreReadExactlyOrRejected)
{
    SweepPoint p;
    p.index = 7;
    p.app_name = "SQ";
    p.backend = backends::planar;
    p.policy = 6;
    p.arbiter = 1;
    p.layout_objective = 2;
    p.epr_window = 4;
    p.metrics.code = qec::CodeKind::Planar;
    p.metrics.code_distance = 9;
    // Above 2^53: a double would round these.
    p.metrics.schedule_cycles = (uint64_t{1} << 60) + 1;
    p.metrics.critical_path_cycles = (uint64_t{1} << 53) + 1;
    p.arena_allocs = 5;
    p.arena_bytes = 6;
    p.heap_allocs = 7;
    std::ostringstream os;
    writeSweepRowLine(os, p);
    const std::string line = os.str();

    SweepPoint back = parseSweepRowLine(line);
    EXPECT_EQ(back.index, 7u);
    EXPECT_EQ(back.policy, 6);
    EXPECT_EQ(back.arbiter, 1);
    EXPECT_EQ(back.layout_objective, 2);
    EXPECT_EQ(back.epr_window, 4);
    EXPECT_EQ(back.metrics.code_distance, 9);
    EXPECT_EQ(back.metrics.schedule_cycles, (uint64_t{1} << 60) + 1);
    EXPECT_EQ(back.metrics.critical_path_cycles,
              (uint64_t{1} << 53) + 1);
    EXPECT_EQ(back.arena_allocs, 5u);
    EXPECT_EQ(back.arena_bytes, 6u);
    EXPECT_EQ(back.heap_allocs, 7u);

    // Rows arrive from remote workers and resumed files: a huge,
    // fractional or (for counts) negative value is an error, never
    // a cast.
    for (const char *key :
         {"index", "policy", "arbiter", "layout_objective",
          "epr_window", "code_distance", "schedule_cycles",
          "critical_path_cycles", "arena_allocs", "arena_bytes",
          "heap_allocs"}) {
        for (const char *value :
             {"1e300", "-1e300", "2.5", "1e19", "18446744073709551616"})
            EXPECT_THROW(parseSweepRowLine(withField(line, key, value)),
                         FatalError)
                << key << " = " << value;
    }
    for (const char *key :
         {"index", "schedule_cycles", "critical_path_cycles",
          "arena_allocs", "arena_bytes", "heap_allocs"})
        EXPECT_THROW(parseSweepRowLine(withField(line, key, "-1")),
                     FatalError)
            << key;
}

TEST(SweepRows, ResumeRejectsAFingerprintOffInItsLowestBit)
{
    setQuiet(true);
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {backends::planar_model};
    grid.distances = {5, 7};
    grid.sizes = {1e6};
    grid.base.seed = 1234;
    uint64_t fp = sweepGridFingerprint(grid);
    // Above 2^54 neighbouring integers share one double, so only an
    // exact comparison tells the two fingerprints apart.
    ASSERT_GE(fp, uint64_t{1} << 54);

    std::string path = testing::TempDir() + "/qsurf_fp_rows.jsonl";
    SweepOptions opts;
    opts.num_threads = 1;
    opts.rows_path = path;
    SweepDriver().run(grid, opts);

    std::ifstream in(path);
    std::string header, rest, line;
    ASSERT_TRUE(std::getline(in, header));
    while (std::getline(in, line))
        rest += line + "\n";
    in.close();
    std::vector<SweepPoint> points = expandSweepPoints(grid);
    std::vector<uint8_t> done(points.size(), 0);
    ASSERT_EQ(loadSweepRows(path, grid, "", points, done), 2u);

    std::ofstream(path, std::ios::trunc)
        << withField(header, "grid_fingerprint",
                     std::to_string(fp ^ 1))
        << "\n" << rest;
    points = expandSweepPoints(grid);
    done.assign(points.size(), 0);
    EXPECT_EQ(loadSweepRows(path, grid, "", points, done), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace qsurf::engine
