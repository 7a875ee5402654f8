#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"

namespace qsurf::obs {

void
MetricsRegistry::inc(const std::string &name, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex);
    counters[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mutex);
    gauges[name] = v;
}

void
MetricsRegistry::observe(const std::string &name, double v)
{
    std::lock_guard<std::mutex> lock(mutex);
    histograms[name].observe(v);
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    // Copy under the source lock first, then fold in under ours, so
    // the two locks are never held together (no ordering deadlock).
    MetricsSnapshot src;
    std::map<std::string, Histogram> src_hists;
    {
        std::lock_guard<std::mutex> lock(other.mutex);
        src.counters.assign(other.counters.begin(),
                            other.counters.end());
        src.gauges.assign(other.gauges.begin(), other.gauges.end());
        src_hists = other.histograms;
    }
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[name, v] : src.counters)
        counters[name] += v;
    for (const auto &[name, v] : src.gauges)
        gauges[name] = v;
    for (const auto &[name, h] : src_hists)
        histograms[name].merge(h);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex);
    snap.counters.assign(counters.begin(), counters.end());
    snap.gauges.assign(gauges.begin(), gauges.end());
    snap.histograms.reserve(histograms.size());
    for (const auto &[name, h] : histograms)
        snap.histograms.emplace_back(name, h.summarize());
    return snap;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

int
MetricsRegistry::Histogram::bucketOf(double v)
{
    if (!(v >= std::ldexp(1.0, min_exp)))
        return 0; // Underflow: tiny, zero, negative, NaN.
    int exp = 0;
    double frac = std::frexp(v, &exp); // v = frac * 2^exp, frac in [0.5, 1).
    // Sub-bucket within the octave, from the leading fraction bits.
    int sub = static_cast<int>((frac - 0.5) * 2 * sub_buckets);
    sub = std::min(sub, sub_buckets - 1);
    int b = (exp - 1 - min_exp) * sub_buckets + sub + 1;
    return std::clamp(b, 0, num_buckets - 1);
}

double
MetricsRegistry::Histogram::bucketLowerBound(int b)
{
    if (b <= 0)
        return 0;
    int idx = b - 1;
    int exp = min_exp + idx / sub_buckets;
    int sub = idx % sub_buckets;
    return std::ldexp(1.0 + static_cast<double>(sub) / sub_buckets,
                      exp);
}

void
MetricsRegistry::Histogram::observe(double v)
{
    if (buckets.empty())
        buckets.assign(num_buckets, 0);
    if (count == 0) {
        min = v;
        max = v;
    } else {
        min = std::min(min, v);
        max = std::max(max, v);
    }
    ++count;
    sum += v;
    ++buckets[static_cast<size_t>(bucketOf(v))];
}

void
MetricsRegistry::Histogram::merge(const Histogram &other)
{
    if (other.count == 0)
        return;
    if (buckets.empty())
        buckets.assign(num_buckets, 0);
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    for (size_t b = 0; b < other.buckets.size(); ++b)
        buckets[b] += other.buckets[b];
}

HistogramSummary
MetricsRegistry::Histogram::summarize() const
{
    HistogramSummary s;
    s.count = count;
    s.sum = sum;
    s.min = min;
    s.max = max;
    if (count == 0)
        return s;
    auto percentile = [&](double p) {
        // Rank of the p-th percentile (1-based, ceil).
        auto rank = static_cast<uint64_t>(
            std::ceil(p * static_cast<double>(count)));
        rank = std::max<uint64_t>(rank, 1);
        uint64_t seen = 0;
        for (size_t b = 0; b < buckets.size(); ++b) {
            seen += buckets[b];
            if (seen >= rank)
                return bucketLowerBound(static_cast<int>(b));
        }
        return max;
    };
    s.p50 = percentile(0.50);
    s.p95 = percentile(0.95);
    s.p99 = percentile(0.99);
    return s;
}

void
writeMetricsJson(std::ostream &os, const MetricsSnapshot &snap)
{
    JsonWriter j(os);
    j.beginObject();
    j.key("counters");
    j.beginObject();
    for (const auto &[name, v] : snap.counters)
        j.field(name, v);
    j.endObject();
    j.key("gauges");
    j.beginObject();
    for (const auto &[name, v] : snap.gauges)
        j.field(name, v);
    j.endObject();
    j.key("histograms");
    j.beginObject();
    for (const auto &[name, h] : snap.histograms) {
        j.key(name);
        j.beginObject();
        j.field("count", h.count);
        j.field("sum", h.sum);
        j.field("mean", h.mean());
        j.field("min", h.min);
        j.field("max", h.max);
        j.field("p50", h.p50);
        j.field("p95", h.p95);
        j.field("p99", h.p99);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    os << "\n";
}

} // namespace qsurf::obs
