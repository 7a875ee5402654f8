/**
 * @file
 * Aggregate telemetry registry: named counters, gauges and
 * log-bucketed histograms with deterministic percentile estimates.
 *
 * The registry is the third observability sink (next to the Chrome
 * trace and the congestion heatmap, see obs/trace.h): schedulers feed
 * it event-derived distributions (op wait, corridor hold), the
 * compile service feeds it wall-clock telemetry (request latency,
 * queue depth, per-shard cache traffic), and the sweep driver feeds
 * it per-point phase timings.  Event-derived metrics are
 * bit-identical at any thread count because histogram aggregation is
 * commutative; wall-clock metrics naturally are not and live in the
 * process-wide global() registry, kept apart from the per-session
 * one.
 */

#ifndef QSURF_OBS_METRICS_H
#define QSURF_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace qsurf::obs {

/**
 * One histogram's summary: count/sum/min/max plus percentile
 * estimates.  Percentiles are lower bounds of the log-spaced bucket
 * the rank falls in (deterministic, ~19% worst-case relative error
 * from the 4-per-octave bucketing).
 */
struct HistogramSummary
{
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;

    double
    mean() const
    {
        return count ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Point-in-time copy of a registry's contents, sorted by name. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSummary>> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty()
            && histograms.empty();
    }
};

/**
 * Thread-safe registry of named counters, gauges and histograms.
 *
 * Naming convention (see README "Observability"): dot-separated
 * lowercase paths, subsystem first — "obs.events.route_deny",
 * "service.request.latency_ms", "sweep.phase.run_ms",
 * "cache.shard0.hits".  Histograms carry their unit as the final
 * path segment ("_ms", "_cycles").
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Add @p delta to counter @p name (creating it at zero). */
    void inc(const std::string &name, uint64_t delta = 1);

    /** Set gauge @p name to @p v (last write wins). */
    void set(const std::string &name, double v);

    /** Record one observation @p v into histogram @p name. */
    void observe(const std::string &name, double v);

    /** Merge every metric of @p other into this registry:
     *  counters add, gauges overwrite, histograms merge bucketwise. */
    void merge(const MetricsRegistry &other);

    /** @return a sorted copy of the current contents. */
    MetricsSnapshot snapshot() const;

    /**
     * The process-wide registry service and sweep wall-clock
     * telemetry lands in by default.
     */
    static MetricsRegistry &global();

  private:
    /**
     * Log-spaced histogram: 4 buckets per power of two over
     * [2^-16, 2^48), plus an underflow bucket for values < 2^-16
     * (including zero and negatives).  Bucket index is a pure
     * function of the value, so parallel aggregation in any order
     * produces identical summaries.
     */
    struct Histogram
    {
        static constexpr int sub_buckets = 4;
        static constexpr int min_exp = -16;
        static constexpr int max_exp = 48;
        static constexpr int num_buckets =
            (max_exp - min_exp) * sub_buckets + 1;

        uint64_t count = 0;
        double sum = 0;
        double min = 0;
        double max = 0;
        std::vector<uint64_t> buckets;

        void observe(double v);
        void merge(const Histogram &other);
        HistogramSummary summarize() const;

        static int bucketOf(double v);
        static double bucketLowerBound(int b);
    };

    mutable std::mutex mutex;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Histogram> histograms;
};

/**
 * Write @p snap as a JSON object:
 *
 *   {"counters": {name: n, ...},
 *    "gauges": {name: v, ...},
 *    "histograms": {name: {"count": n, "sum": s, "mean": m,
 *                          "min": lo, "max": hi,
 *                          "p50": a, "p95": b, "p99": c}, ...}}
 */
void writeMetricsJson(std::ostream &os, const MetricsSnapshot &snap);

} // namespace qsurf::obs

#endif // QSURF_OBS_METRICS_H
