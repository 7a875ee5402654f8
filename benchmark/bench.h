/**
 * @file
 * Shared pieces of qsurf_bench: run options, the per-run
 * result record, the span tracer, statistics helpers and the
 * process helpers the workloads use to launch the system under test.
 *
 * Every workload measures the library from outside, through its
 * public functions; nothing here reaches into src/ internals.
 */

#ifndef QSURF_BENCHMARK_BENCH_H
#define QSURF_BENCHMARK_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "engine/backend.h"
#include "engine/sweep.h"
#include "service/cache.h"

namespace qsurf::bench {

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** @return milliseconds from @p a to @p b. */
double msBetween(Clock::time_point a, Clock::time_point b);

/** Options of one workload run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;

    /** Length of the measured phase. */
    double seconds = 20;

    /** Traced run: report per-layer metrics and check shape gates. */
    bool trace = false;

    /** Scaled-down inputs, correctness only. */
    bool smoke = false;

    /** Directory holding qsurf_bench and compile_server. */
    std::string exe_dir;

    /** Chrome trace-event output of a traced run. */
    std::string trace_file = "bench_trace.json";
};

/** One shape gate of a traced run: a layer must keep its share. */
struct Gate
{
    std::string name;
    double value = 0;
    bool at_least = true; ///< value >= threshold, else value <= it.
    double threshold = 0;

    bool
    pass() const
    {
        return at_least ? value >= threshold : value <= threshold;
    }
};

/** Outcome of one workload run. */
struct Result
{
    /** Metric values by BENCHMARK.json name. */
    std::map<std::string, double> metrics;

    /** Operations (points or requests) checked, and those that
     *  failed, broke an invariant or disagreed with a reference. */
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** The first few failure descriptions. */
    std::vector<std::string> failures;

    /** FNV-1a digest of every deterministic output. */
    uint64_t digest = 0xcbf29ce484222325ull;

    std::vector<Gate> gates;

    /** Sample counts and other context printed with the metrics. */
    std::vector<std::string> notes;

    /** Count a failure described by @p why. */
    void fail(const std::string &why);

    /** Check @p m's invariants and count it as attempted. */
    void check(const engine::Metrics &m, int requested_distance,
               const std::string &what);

    void gate(const std::string &name, double value, bool at_least,
              double threshold);

    void note(const std::string &line) { notes.push_back(line); }

    /** Fold @p bytes into the digest. */
    void mix(std::string_view bytes);

    bool correct() const;
};

/**
 * @return "" when @p m is a legal result, else why not: the run
 * produced a schedule (schedule >= critical path > 0), and a
 * simulated backend used @p requested_distance (0 skips that check;
 * the analytic models pick their own distance).
 */
std::string invariantError(const engine::Metrics &m,
                           int requested_distance);

/** @return every field of @p m, extras included, as one string:
 *  equal strings <=> equal results. */
std::string canonicalMetrics(const engine::Metrics &m);

/** @return the scheduler family of a backend ("braid", "surgery",
 *  "hybrid", "planar"), or "" for the analytic models. */
std::string schedFamily(const std::string &backend);

/** The four scheduler families, in report order. */
const std::vector<std::string> &schedFamilies();

// ---------------------------------------------------------- statistics

/** Passes for a run: enough to fill @p budget seconds given the
 *  first pass took @p first_pass, and at least @p min_passes. */
int passesFor(double budget, double first_pass, int min_passes);

/** Linear-interpolated @p q-quantile (0..1) of @p v. */
double percentile(std::vector<double> v, double q);

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them. */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/**
 * Record a latency distribution: the median and the @p tail_q
 * percentile into @p p50_name / @p tail_name, with a note giving the
 * sample count and how many samples lie beyond the tail.
 */
void recordLatency(Result &r, const std::vector<double> &ms,
                   double tail_q, const std::string &p50_name,
                   const std::string &tail_name);

/** Record the geometric-mean design quality of @p results. */
void recordQuality(Result &r,
                   const std::vector<engine::Metrics> &results);

// -------------------------------------------------------------- tracer

/**
 * In-memory span recorder.  A span has a name, start, end, parent
 * span and the point or request id it belongs to; spans stay in
 * memory until the run writes them out.  A null Tracer* disables
 * recording (Scope is then a no-op), so one replay path serves the
 * traced and untraced runs.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int64_t start_ns;
        int64_t end_ns;
        int parent;
        uint64_t id;
        int tid;
    };

    Tracer();

    /** Open a span; @return its index. */
    int begin(const char *name, uint64_t id, int parent);

    /** Close span @p index. */
    void end(int index);

    /** Record a closed span from explicit times. */
    int add(const char *name, Clock::time_point start,
            Clock::time_point end, uint64_t id, int parent,
            int tid = 0);

    /** RAII span; a null tracer records nothing. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, uint64_t id,
              int parent = -1);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** @return the span index (the parent for child spans). */
        int index() const { return index_; }

      private:
        Tracer *tracer_;
        int index_ = -1;
    };

    /** Per span name: summed duration and summed self time (the
     *  duration minus the time covered by child spans), seconds. */
    struct Layer
    {
        double total_s = 0;
        double self_s = 0;
    };
    std::map<std::string, Layer> layers() const;

    /** Write the spans as Chrome trace events of process @p pid,
     *  named @p process. */
    void writeChrome(const std::string &path, const std::string &process,
                     int pid) const;

  private:
    int64_t nowNs() const;

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------- sweep replay

/** Per-layer counters a replay accumulates. */
struct LayerCounters
{
    uint64_t qasm_bytes = 0;      ///< QASM source bytes parsed.
    uint64_t gates_out = 0;       ///< Decomposed gates of programs built.
    uint64_t layout_builds = 0;   ///< Backend::buildArtifact calls.
    uint64_t cache_fetches = 0;   ///< Artifact lookups.
    uint64_t heap_allocs = 0;     ///< operator new inside Backend::run.
    uint64_t arena_allocs = 0;    ///< Arena bumps inside Backend::run.
    uint64_t row_bytes = 0;       ///< Row-line bytes encoded.
    uint64_t rows = 0;
    double placement_failures = 0;
    double bfs_detours = 0;
    double drops = 0;
    double transpose_fallbacks = 0;
    double ff_skipped_cycles = 0; ///< Over backends that fast-forward.
    double ff_cycles = 0;
    std::map<std::string, double> family_cycles;

    /** The workload's cache traffic (the cache its layers share). */
    service::CacheStats cache;

    /** Fold @p m's scheduler counters in. */
    void addSched(const engine::Metrics &m);
};

/**
 * Fetch @p backend's artifact for @p item through @p cache exactly
 * as service::fetchArtifact does, with the lookup traced as "cache"
 * and a miss's Backend::buildArtifact traced as its child "layout".
 */
std::shared_ptr<const engine::PreparedArtifact>
tracedFetch(service::PrepareCache &cache,
            const engine::Backend &backend,
            const engine::WorkItem &item, Tracer *tracer, uint64_t id,
            int parent, LayerCounters &counters);

/**
 * Run one sweep Backend::run under a fresh scratch arena, as the
 * sweep driver does, traced as "sched.<family>" and counting heap and
 * arena allocations.
 */
engine::Metrics tracedRun(const engine::Backend &backend,
                          const engine::WorkItem &item,
                          const engine::PreparedArtifact *artifact,
                          Tracer *tracer, uint64_t id, int parent,
                          LayerCounters &counters);

/**
 * Replay every point of @p grid through the public calls, building
 * WorkItems exactly as SweepDriver does: cachedAppProgram (frontend),
 * the artifact fetch (cache, then layout), Backend::run (sched) and
 * writeSweepRowLine / parseSweepRowLine (row).  Point ids start at
 * @p id_base.  @return the points with their metrics.
 */
std::vector<engine::SweepPoint>
replayGrid(const engine::SweepGrid &grid, Tracer *tracer,
           uint64_t id_base, LayerCounters &counters, Result &r);

/**
 * Run @p replay(Tracer *) untraced, traced into @p tracer, then
 * untraced again; each call returns its wall time.  @return the
 * traced replay's slowdown against the untraced mean: bracketing the
 * traced replay cancels warm-up out of the overhead.
 */
template <typename Replay>
double
tracedOverhead(Tracer &tracer, Replay &&replay)
{
    double plain = replay(nullptr);
    double traced = replay(&tracer);
    plain = (plain + replay(nullptr)) / 2;
    return traced / plain - 1.0;
}

/** Record the per-layer metrics shared by every traced run. */
void recordLayers(Result &r, const Tracer &tracer,
                  const LayerCounters &c);

// ------------------------------------------------------------ process

/** Heap allocations of this process so far (operator new hook). */
uint64_t heapAllocs();

/**
 * A child process, killed and reaped on destruction if still
 * running; the watchdog kills every live child before qsurf_bench
 * gives up.
 */
class Child
{
  public:
    /** Fork and exec @p argv; @p stdout_fd / @p stderr_fd replace the
     *  child's (-1 inherits). */
    Child(const std::vector<std::string> &argv, int stdout_fd = -1,
          int stderr_fd = -1);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    pid_t pid() const { return pid_; }

    /** Wait for exit; @return the exit code (128 + signal when
     *  killed). */
    int wait();

  private:
    pid_t pid_ = -1;
};

/** Install a watchdog that kills every Child and exits nonzero after
 *  @p seconds. */
void armWatchdog(unsigned seconds);

/** @return the peak resident set of @p pid (0 = this process), MiB. */
double peakRssMiB(pid_t pid = 0);

/** @return the largest peak resident set of any reaped child, MiB. */
double childrenPeakRssMiB();

/**
 * Median over @p launches of the time from spawning
 * `qsurf_bench --setup-probe` until it reports ready: process start,
 * Registry::global() and PrepareCache construction.
 */
double probeSetupSeconds(const Options &opts, int launches);

/** Set-up launches per run: set-up takes milliseconds, so each run
 *  reports the median of many. */
constexpr int kSetupLaunches = 15;

/** The --setup-probe child's body. */
int runSetupProbe();

// ----------------------------------------------------------- workloads

Result runSimCongested(const Options &opts);
Result runSweepFleet(const Options &opts);
Result runCompileCold(const Options &opts);
Result runServeOpen(const Options &opts);

} // namespace qsurf::bench

#endif // QSURF_BENCHMARK_BENCH_H
