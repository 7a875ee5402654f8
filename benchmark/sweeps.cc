/**
 * @file
 * The two sweep workloads.
 *
 * sim-congested: the paper's congested regime.  High-communication
 * Table-2 apps (SHA-1, IM semi/full) at d = 5-9 through the
 * in-process SweepDriver on one thread, one grid per backend family
 * so no axis a backend ignores duplicates its points.  The stall loop
 * of the schedulers does almost all the work.
 *
 * sweep-fleet: the fast-forward regime.  Serial deep apps (GSE, SQ)
 * at d = 15-99 on the four simulated backends, sharded over two
 * forked socketpair workers.  Points are short and mostly skipped
 * cycles, so the cost is per scheduler event, and the fleet, wire
 * row frames and row codec carry every result.
 *
 * Both repeat whole passes over their grids until the measured time
 * is spent; every pass must reproduce the first pass's rows exactly.
 */

#include <algorithm>
#include <sstream>

#include "bench.h"
#include "service/shard.h"

namespace qsurf::bench {

namespace {

using apps::AppKind;

std::string
pointLabel(const engine::SweepPoint &p)
{
    std::ostringstream os;
    os << p.app_name << "/" << p.backend << "/d=" << p.distance
       << "/p=" << p.policy << "/a=" << p.arbiter;
    return os.str();
}

/**
 * Whole passes over a workload's grids.  Every pass is checked
 * against the first, and each grid's wall time and each point's time
 * are kept per pass.  Timings take the fastest pass: on a shared
 * host, neighbours contending for the cache slow cache-resident work
 * by up to 2x for seconds at a time (measured on a 4-vCPU KVM guest),
 * and that noise only ever adds time.
 */
class Passes
{
  public:
    Passes(Result &r, size_t grids)
        : r_(r), reference_(grids), grid_s_(grids), offset_(grids)
    {
    }

    void
    add(size_t grid, int pass, double wall_s,
        const std::vector<engine::SweepPoint> &pts)
    {
        std::string canonical = engine::canonicalSweepRows(pts);
        if (pass == 0) {
            reference_[grid] = canonical;
            r_.mix(canonical);
            offset_[grid] = point_ms_.size();
            point_ms_.resize(point_ms_.size() + pts.size());
        } else if (canonical != reference_[grid]) {
            r_.fail("pass " + std::to_string(pass) + " of grid "
                    + std::to_string(grid)
                    + " disagrees with the first pass");
        }
        grid_s_[grid].push_back(wall_s);
        for (const engine::SweepPoint &p : pts) {
            r_.check(p.metrics, p.distance, pointLabel(p));
            point_ms_[offset_[grid] + p.index].push_back(p.wall_ms
                                                         + p.prepare_ms);
            if (pass == 0)
                first_.push_back(p.metrics);
        }
    }

    /** Points per second over the summed fastest wall time of each
     *  grid. */
    double
    opsPerSecond() const
    {
        double wall = 0;
        for (const std::vector<double> &g : grid_s_)
            wall += *std::min_element(g.begin(), g.end());
        return static_cast<double>(point_ms_.size()) / wall;
    }

    /** Each point's fastest time over the passes, ms. */
    std::vector<double>
    pointTimes() const
    {
        std::vector<double> out;
        for (const std::vector<double> &t : point_ms_)
            out.push_back(*std::min_element(t.begin(), t.end()));
        return out;
    }

    int passes() const { return static_cast<int>(grid_s_[0].size()); }
    const std::vector<std::string> &reference() const { return reference_; }

    /** Record the end-to-end metrics of the passes. */
    void
    record(const std::string &shape) const
    {
        r_.metrics["ops_per_s"] = opsPerSecond();
        r_.note(std::to_string(point_ms_.size()) + " points x "
                + std::to_string(passes()) + " passes, " + shape
                + "; times are each point's fastest pass");
        recordLatency(r_, pointTimes(), 0.90, "op_p50_ms",
                      "op_tail_ms");
        recordQuality(r_, first_);
    }

  private:
    Result &r_;
    std::vector<std::string> reference_;       ///< Canonical rows per grid.
    std::vector<std::vector<double>> grid_s_;  ///< [grid][pass] wall.
    std::vector<size_t> offset_;               ///< First point per grid.
    std::vector<std::vector<double>> point_ms_; ///< [point][pass].
    std::vector<engine::Metrics> first_;
};

/** Replay @p grids and check the rows against @p reference;
 *  @return the replay's wall time. */
double
replayGrids(const std::vector<engine::SweepGrid> &grids,
            const std::vector<std::string> &reference, Tracer *tracer,
            LayerCounters &counters, Result &r)
{
    auto start = Clock::now();
    for (size_t g = 0; g < grids.size(); ++g) {
        std::vector<engine::SweepPoint> pts =
            replayGrid(grids[g], tracer, g * 100000, counters, r);
        if (engine::canonicalSweepRows(pts) != reference[g])
            r.fail("replay of grid " + std::to_string(g)
                   + " disagrees with the untraced rows");
    }
    return secondsSince(start);
}

/** Replay @p grids untraced and traced (see tracedOverhead), with
 *  the traced replay's counts in @p counters; @return the overhead. */
double
replayTraced(const std::vector<engine::SweepGrid> &grids,
             const std::vector<std::string> &reference, Tracer &tracer,
             LayerCounters &counters, Result &r)
{
    LayerCounters scratch;
    return tracedOverhead(tracer, [&](Tracer *t) {
        return replayGrids(grids, reference, t, t ? counters : scratch,
                           r);
    });
}

double
schedTotal(const std::map<std::string, Tracer::Layer> &layers)
{
    double total = 0;
    for (const std::string &family : schedFamilies()) {
        auto it = layers.find("sched." + family);
        if (it != layers.end())
            total += it->second.total_s;
    }
    return total;
}

// ------------------------------------------------------- sim-congested

std::vector<engine::SweepGrid>
congestedGrids(const Options &opts)
{
    std::vector<engine::AppPoint> wide, surgery_apps;
    std::vector<int> distances, surgery_distances;
    if (opts.smoke) {
        wide = {{AppKind::SHA1, {8, 2}}, {AppKind::IsingSemi, {16, 2}}};
        surgery_apps = {{AppKind::SHA1, {8, 2}}};
        distances = surgery_distances = {5};
    } else {
        // Many small instances rather than a few large ones: each pass
        // has over 100 points to take percentiles over, and is short
        // enough for ten passes a run.
        wide = {{AppKind::SHA1, {10, 4}},     {AppKind::SHA1, {12, 6}},
                {AppKind::IsingSemi, {16, 4}}, {AppKind::IsingSemi, {24, 4}},
                {AppKind::IsingSemi, {32, 3}}, {AppKind::IsingFull, {16, 4}},
                {AppKind::IsingFull, {24, 4}}};
        // The surgery scheduler stalls an order of magnitude longer
        // per op; smaller instances keep it under half the pass.
        surgery_apps = {{AppKind::SHA1, {10, 3}},
                        {AppKind::IsingSemi, {12, 3}},
                        {AppKind::IsingFull, {10, 3}}};
        distances = {5, 7, 9};
        surgery_distances = {5, 9};
    }
    uint64_t layout_seed = engine::mixSeed(opts.seed, 0xc0de);

    auto grid = [&](const std::vector<engine::AppPoint> &apps,
                    const char *backend, const std::vector<int> &ds) {
        engine::SweepGrid g;
        g.apps = apps;
        g.backends = {backend};
        g.distances = ds;
        g.base.seed = layout_seed;
        return g;
    };
    std::vector<engine::SweepGrid> grids;
    grids.push_back(grid(wide, engine::backends::double_defect,
                         distances));
    grids.back().policies = {0, 6};
    grids.push_back(grid(wide, engine::backends::hybrid_mixed,
                         distances));
    grids.back().arbiters = {0, 1};
    grids.push_back(grid(wide, engine::backends::planar, distances));
    grids.push_back(grid(surgery_apps, engine::backends::surgery_sim,
                         surgery_distances));
    return grids;
}

// --------------------------------------------------------- sweep-fleet

engine::SweepGrid
fleetGrid(const Options &opts)
{
    engine::SweepGrid g;
    g.backends = {engine::backends::double_defect,
                  engine::backends::planar,
                  engine::backends::surgery_sim,
                  engine::backends::hybrid_mixed};
    if (opts.smoke) {
        g.apps = {{AppKind::GSE, {12, 0}}, {AppKind::SQ, {8, 4}}};
        g.distances = {15, 99};
    } else {
        g.apps = {{AppKind::GSE, {24, 0}}, {AppKind::GSE, {32, 0}},
                  {AppKind::GSE, {40, 0}}, {AppKind::SQ, {10, 12}},
                  {AppKind::SQ, {10, 24}}, {AppKind::SQ, {10, 48}},
                  {AppKind::SQ, {10, 96}}};
        g.distances = {15, 43, 71, 99};
    }
    g.base.seed = engine::mixSeed(opts.seed, 0x5eed);
    // Deep serial apps at large distance legitimately run past the
    // default runaway guard (cycles scale with gates x distance).
    g.base.max_cycles = 10'000'000'000ull;
    return g;
}

} // namespace

Result
runSimCongested(const Options &opts)
{
    Result r;
    r.metrics["setup_s"] =
        probeSetupSeconds(opts, opts.smoke ? 3 : kSetupLaunches);

    std::vector<engine::SweepGrid> grids = congestedGrids(opts);
    Passes passes(r, grids.size());
    // A traced run needs one pass: the rows its replay must match.
    int min_passes = opts.smoke || opts.trace ? 1 : 3;
    double budget = opts.trace ? opts.seconds / 3 : opts.seconds;
    int target = 1;
    for (int pass = 0; pass < target; ++pass) {
        auto pass_start = Clock::now();
        for (size_t g = 0; g < grids.size(); ++g) {
            service::PrepareCache cache;
            engine::SweepOptions so;
            so.num_threads = 1;
            so.cache = &cache;
            so.stream_rows = false;
            auto start = Clock::now();
            std::vector<engine::SweepPoint> pts =
                engine::SweepDriver().run(grids[g], so);
            passes.add(g, pass, secondsSince(start), pts);
        }
        if (pass == 0)
            target = passesFor(budget, secondsSince(pass_start),
                               min_passes);
    }

    if (opts.trace) {
        Tracer tracer;
        LayerCounters counters;
        double overhead = replayTraced(grids, passes.reference(), tracer,
                                       counters, r);
        recordLayers(r, tracer, counters);
        r.metrics["trace.overhead"] = overhead;
        auto layers = tracer.layers();
        double point_s = layers["point"].total_s;
        r.gate("sched_share", point_s > 0 ? schedTotal(layers) / point_s
                                          : 0.0,
               true, 0.80);
        r.gate("sched.ff_skip_ratio", r.metrics["sched.ff_skip_ratio"],
               false, 0.30);
        tracer.writeChrome(opts.trace_file, "sim-congested", 1);
    } else {
        passes.record("1 thread");
    }
    r.metrics["peak_rss_mb"] = peakRssMiB();
    return r;
}

Result
runSweepFleet(const Options &opts)
{
    Result r;
    r.metrics["setup_s"] =
        probeSetupSeconds(opts, opts.smoke ? 3 : kSetupLaunches);

    engine::SweepGrid grid = fleetGrid(opts);
    const int workers = 2;
    Passes passes(r, 1);
    int min_passes = opts.smoke || opts.trace ? 1 : 3;
    double budget = opts.trace ? opts.seconds / 3 : opts.seconds;
    double overhead = 0, imbalance = 0;
    uint64_t worker_failures = 0;
    int target = 1;
    for (int pass = 0; pass < target; ++pass) {
        service::PrepareCache cache;
        service::FleetStats stats;
        service::ShardOptions so;
        so.workers = workers;
        so.sweep.num_threads = 1;
        so.sweep.cache = &cache;
        so.sweep.stream_rows = false;
        so.idle_timeout_sec = 60;
        so.stats = &stats;
        auto start = Clock::now();
        std::vector<engine::SweepPoint> pts =
            service::runShardedSweep(grid, so);
        double wall = secondsSince(start);
        passes.add(0, pass, wall, pts);

        // A worker's points are its residue class; the fleet's own
        // cost is what the wall clock adds to the slowest worker.
        std::vector<double> per_worker(workers, 0.0);
        for (const engine::SweepPoint &p : pts)
            per_worker[p.index % workers] +=
                (p.prepare_ms + p.wall_ms) / 1e3;
        double slowest = *std::max_element(per_worker.begin(),
                                           per_worker.end());
        double mean = (per_worker[0] + per_worker[1]) / workers;
        overhead += wall - slowest;
        imbalance += mean > 0 ? slowest / mean : 1.0;
        worker_failures += stats.worker_failures;
        if (pass == 0)
            target = passesFor(budget, wall, min_passes);
    }

    if (opts.trace) {
        Tracer tracer;
        LayerCounters counters;
        double trace_overhead = replayTraced({grid}, passes.reference(),
                                             tracer, counters, r);
        recordLayers(r, tracer, counters);
        r.metrics["fleet.overhead_s"] = overhead / target;
        r.metrics["fleet.imbalance"] = imbalance / target;
        r.metrics["fleet.worker_failures"] =
            static_cast<double>(worker_failures);
        r.metrics["trace.overhead"] = trace_overhead;
        r.gate("sched.ff_skip_ratio", r.metrics["sched.ff_skip_ratio"],
               true, 0.90);
        tracer.writeChrome(opts.trace_file, "sweep-fleet", 2);
    } else {
        passes.record(std::to_string(workers) + " workers x 1 thread");
    }
    if (worker_failures)
        r.note(std::to_string(worker_failures)
               + " fleet worker(s) lost and recovered");
    r.metrics["peak_rss_mb"] =
        std::max(peakRssMiB(), childrenPeakRssMiB());
    return r;
}

} // namespace qsurf::bench
