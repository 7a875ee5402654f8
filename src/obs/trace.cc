#include "obs/trace.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "common/json.h"
#include "common/logging.h"
#include "network/mesh.h"

namespace qsurf::obs {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::OpReady:          return "op_ready";
      case EventKind::OpIssue:          return "op_issue";
      case EventKind::OpRetire:         return "op_retire";
      case EventKind::RouteClaim:       return "route_claim";
      case EventKind::RouteFallback:    return "route_fallback";
      case EventKind::RouteDeny:        return "route_deny";
      case EventKind::RouteDrop:        return "route_drop";
      case EventKind::ChainHold:        return "chain_hold";
      case EventKind::TeleportChannel:  return "teleport_channel";
      case EventKind::TeleportStall:    return "teleport_stall";
      case EventKind::FactoryReplenish: return "factory_replenish";
      case EventKind::FactoryStarve:    return "factory_starve";
      case EventKind::ArbiterDecision:  return "arbiter_decision";
      case EventKind::FastForwardSkip:  return "fast_forward_skip";
    }
    return "unknown";
}

namespace {

/**
 * Display name of an op-issue lane.  Lanes are scheme-relative: the
 * schedulers stamp OpIssue.a with their own lane index, and the
 * backend name picks the vocabulary.  The surgery simulator is the
 * hybrid scheduler, so it shares the hybrid lanes.
 */
const char *
laneName(const std::string &backend, int64_t lane)
{
    if (backend.find("hybrid") != std::string::npos
        || backend.find("surgery") != std::string::npos) {
        switch (lane) {
          case 0: return "ops/local";
          case 1: return "ops/braid";
          case 2: return "ops/teleport";
          case 3: return "ops/surgery";
        }
    } else if (backend.find("double-defect") != std::string::npos) {
        switch (lane) {
          case 0: return "ops/local";
          case 1: return "ops/t-braid";
          case 2: return "ops/cnot-braid";
        }
    }
    return "ops";
}

/** Fixed Chrome-trace track (tid) layout within each run's process. */
enum Track : int
{
    track_lane0 = 0, // ops/<lane> tracks occupy [0, 3].
    track_lifecycle = 9,
    track_routes = 10,
    track_corridors = 11,
    track_factories = 12,
    track_channels = 13,
    track_ff = 14,
};

int
trackOf(const TraceEvent &e)
{
    switch (e.kind) {
      case EventKind::OpIssue:
        return track_lane0 + static_cast<int>(std::clamp<int64_t>(
                                 e.a, 0, 3));
      case EventKind::OpReady:
      case EventKind::OpRetire:
      case EventKind::ArbiterDecision:
        return track_lifecycle;
      case EventKind::RouteClaim:
      case EventKind::RouteFallback:
      case EventKind::RouteDeny:
      case EventKind::RouteDrop:
        return track_routes;
      case EventKind::ChainHold:
        return track_corridors;
      case EventKind::FactoryReplenish:
      case EventKind::FactoryStarve:
        return track_factories;
      case EventKind::TeleportChannel:
      case EventKind::TeleportStall:
        return track_channels;
      case EventKind::FastForwardSkip:
        return track_ff;
    }
    return track_lifecycle;
}

} // namespace

// --------------------------------------------------- HeatmapAccumulator

void
HeatmapAccumulator::configure(int width, int height)
{
    width_ = width;
    height_ = height;
    bucket_cycles_ = 64;
    cells_.assign(static_cast<size_t>(width) * height * 2
                      * max_buckets,
                  0.0);
}

size_t
HeatmapAccumulator::linkIndex(int x, int y, int dir) const
{
    return (static_cast<size_t>(y) * width_ + x) * 2
        + static_cast<size_t>(dir);
}

void
HeatmapAccumulator::widen()
{
    // Fold buckets pairwise: bucket b absorbs buckets 2b and 2b+1.
    for (size_t link = 0;
         link < cells_.size() / max_buckets; ++link) {
        double *row = cells_.data() + link * max_buckets;
        for (int b = 0; b < max_buckets / 2; ++b)
            row[b] = row[2 * b] + row[2 * b + 1];
        for (int b = max_buckets / 2; b < max_buckets; ++b)
            row[b] = 0;
    }
    bucket_cycles_ *= 2;
}

void
HeatmapAccumulator::add(const network::Path &route, uint64_t start,
                        uint64_t duration)
{
    if (!configured() || route.nodes.size() < 2 || duration == 0)
        return;
    uint64_t end = start + duration;
    while (end > bucket_cycles_ * max_buckets)
        widen();
    for (size_t i = 0; i + 1 < route.nodes.size(); ++i) {
        const Coord &a = route.nodes[i];
        const Coord &b = route.nodes[i + 1];
        // The link id lives at the lesser endpoint; dir 0 = +x,
        // dir 1 = +y.
        int lx = std::min(a.x, b.x);
        int ly = std::min(a.y, b.y);
        int dir = a.x == b.x ? 1 : 0;
        double *row =
            cells_.data() + linkIndex(lx, ly, dir) * max_buckets;
        // Distribute the hold across every bucket it overlaps.
        for (uint64_t c = start; c < end;) {
            uint64_t b_idx = c / bucket_cycles_;
            uint64_t b_end = (b_idx + 1) * bucket_cycles_;
            uint64_t chunk = std::min(end, b_end) - c;
            row[b_idx] += static_cast<double>(chunk);
            c += chunk;
        }
    }
}

double
HeatmapAccumulator::linkTotal(int x, int y, int dir) const
{
    if (!configured())
        return 0;
    const double *row =
        cells_.data() + linkIndex(x, y, dir) * max_buckets;
    double total = 0;
    for (int b = 0; b < max_buckets; ++b)
        total += row[b];
    return total;
}

double
HeatmapAccumulator::at(int x, int y, int dir, int b) const
{
    if (!configured() || b < 0 || b >= max_buckets)
        return 0;
    return cells_[linkIndex(x, y, dir) * max_buckets + b];
}

// --------------------------------------------------------- RunRecorder

void
RunRecorder::record(const TraceEvent &e)
{
    events_.push_back(e);
}

void
RunRecorder::meshDims(int width, int height)
{
    heatmap_.configure(width, height);
}

void
RunRecorder::meshDefect(int x, int y, int dir)
{
    defects_.push_back({x, y, dir});
}

void
traceMeshDefects(TraceRecorder *trace, const network::Mesh &mesh)
{
    if (!trace
        || mesh.numDefectiveNodes() + mesh.numDefectiveLinks() == 0)
        return;
    // Scan order (row-major, node before its +x then +y link) is the
    // canonical emission order, independent of how the damage was
    // applied.
    for (int y = 0; y < mesh.height(); ++y)
        for (int x = 0; x < mesh.width(); ++x) {
            Coord c{x, y};
            if (mesh.nodeDefective(c))
                trace->meshDefect(x, y, -1);
            if (x + 1 < mesh.width()
                && mesh.linkDefective(c, {x + 1, y}))
                trace->meshDefect(x, y, 0);
            if (y + 1 < mesh.height()
                && mesh.linkDefective(c, {x, y + 1}))
                trace->meshDefect(x, y, 1);
        }
}

void
RunRecorder::routeHeld(const network::Path &route, uint64_t start,
                       uint64_t duration)
{
    heatmap_.add(route, start, duration);
}

void
RunRecorder::finish()
{
    std::stable_sort(
        events_.begin(), events_.end(),
        [](const TraceEvent &l, const TraceEvent &r) {
            return std::tie(l.cycle, l.kind, l.op, l.a, l.b, l.c)
                < std::tie(r.cycle, r.kind, r.op, r.a, r.b, r.c);
        });
}

// -------------------------------------------------------- TraceSession

std::unique_ptr<RunRecorder>
TraceSession::beginRun(size_t index, std::string label,
                       std::string backend)
{
    return std::make_unique<RunRecorder>(index, std::move(label),
                                         std::move(backend));
}

void
TraceSession::endRun(std::unique_ptr<RunRecorder> rec)
{
    if (!rec)
        return;
    rec->finish();
    aggregate(*rec);
    std::lock_guard<std::mutex> lock(mutex_);
    ended_.push_back(std::move(rec));
}

size_t
TraceSession::runs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ended_.size();
}

void
TraceSession::aggregate(const RunRecorder &rec)
{
    // All metrics here derive from the (canonically sorted) event
    // stream alone, and fold in through commutative operations, so
    // the session registry is identical at any thread count.
    std::unordered_map<int32_t, uint64_t> last_ready;
    for (const TraceEvent &e : rec.events()) {
        metrics_.inc(std::string("obs.events.")
                     + eventKindName(e.kind));
        switch (e.kind) {
          case EventKind::OpReady:
            last_ready[e.op] = e.cycle;
            break;
          case EventKind::OpIssue: {
            auto it = last_ready.find(e.op);
            if (it != last_ready.end()) {
                metrics_.observe(
                    "obs.op_wait_cycles",
                    static_cast<double>(e.cycle - it->second));
                last_ready.erase(it);
            }
            break;
          }
          case EventKind::ChainHold:
            metrics_.observe("obs.chain_hold_cycles",
                             static_cast<double>(e.b));
            break;
          case EventKind::RouteClaim:
            metrics_.observe("obs.route_hops",
                             static_cast<double>(e.b));
            break;
          case EventKind::TeleportStall:
            metrics_.observe("obs.teleport_stall_cycles",
                             static_cast<double>(e.a));
            break;
          default:
            break;
        }
    }
}

std::vector<const RunRecorder *>
TraceSession::sortedRuns() const
{
    std::vector<const RunRecorder *> runs;
    runs.reserve(ended_.size());
    for (const auto &rec : ended_)
        runs.push_back(rec.get());
    std::sort(runs.begin(), runs.end(),
              [](const RunRecorder *l, const RunRecorder *r) {
                  return l->runIndex() < r->runIndex();
              });
    return runs;
}

void
TraceSession::writeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter j(os);
    j.beginObject();
    j.field("displayTimeUnit", "ms");
    j.key("traceEvents");
    j.beginArray();
    for (const RunRecorder *run : sortedRuns()) {
        auto pid = static_cast<int64_t>(run->runIndex());
        // Process metadata: one Perfetto process group per run.
        j.beginObject();
        j.field("name", "process_name");
        j.field("ph", "M");
        j.field("pid", pid);
        j.key("args");
        j.beginObject();
        j.field("name",
                run->label() + " [" + run->backend() + "]");
        j.endObject();
        j.endObject();
        // Thread (track) names for every track this run uses.
        std::vector<std::pair<int, std::string>> tracks;
        bool lane_used[4] = {false, false, false, false};
        bool track_used[16] = {};
        for (const TraceEvent &e : run->events()) {
            int t = trackOf(e);
            track_used[t] = true;
            if (e.kind == EventKind::OpIssue)
                lane_used[std::clamp<int64_t>(e.a, 0, 3)] = true;
        }
        for (int lane = 0; lane < 4; ++lane)
            if (lane_used[lane])
                tracks.emplace_back(track_lane0 + lane,
                                    laneName(run->backend(), lane));
        if (track_used[track_lifecycle])
            tracks.emplace_back(track_lifecycle, "lifecycle");
        if (track_used[track_routes])
            tracks.emplace_back(track_routes, "routes");
        if (track_used[track_corridors])
            tracks.emplace_back(track_corridors, "corridors");
        if (track_used[track_factories])
            tracks.emplace_back(track_factories, "factories");
        if (track_used[track_channels])
            tracks.emplace_back(track_channels, "channels");
        if (track_used[track_ff])
            tracks.emplace_back(track_ff, "fast-forward");
        for (const auto &[tid, name] : tracks) {
            j.beginObject();
            j.field("name", "thread_name");
            j.field("ph", "M");
            j.field("pid", pid);
            j.field("tid", tid);
            j.key("args");
            j.beginObject();
            j.field("name", name);
            j.endObject();
            j.endObject();
        }
        for (const TraceEvent &e : run->events()) {
            j.beginObject();
            j.field("name", eventKindName(e.kind));
            j.field("cat", run->backend());
            j.field("pid", pid);
            j.field("tid", trackOf(e));
            // One simulated cycle maps to one trace microsecond.
            switch (e.kind) {
              case EventKind::OpIssue:
              case EventKind::ChainHold:
                j.field("ph", "X");
                j.field("ts", static_cast<int64_t>(e.cycle));
                j.field("dur", e.b);
                break;
              case EventKind::TeleportChannel:
                j.field("ph", "X");
                j.field("ts", e.a);
                j.field("dur", e.b - e.a);
                break;
              case EventKind::FastForwardSkip:
                j.field("ph", "X");
                j.field("ts", static_cast<int64_t>(e.cycle));
                j.field("dur", e.a);
                break;
              default:
                j.field("ph", "i");
                j.field("ts", static_cast<int64_t>(e.cycle));
                j.field("s", "t");
                break;
            }
            j.key("args");
            j.beginObject();
            j.field("op", e.op);
            j.field("a", e.a);
            j.field("b", e.b);
            j.field("c", e.c);
            j.endObject();
            j.endObject();
        }
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

void
TraceSession::writeHeatmap(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter j(os);
    j.beginObject();
    j.key("runs");
    j.beginArray();
    for (const RunRecorder *run : sortedRuns()) {
        const HeatmapAccumulator &hm = run->heatmap();
        if (!hm.configured())
            continue; // Meshless backend (planar, analytic models).
        j.beginObject();
        j.field("run", static_cast<uint64_t>(run->runIndex()));
        j.field("label", run->label());
        j.field("backend", run->backend());
        j.field("width", hm.width());
        j.field("height", hm.height());
        j.field("bucket_cycles", hm.bucketCycles());
        j.key("defective_nodes");
        j.beginArray();
        for (const RunRecorder::Defect &d : run->defects())
            if (d.dir < 0) {
                j.beginObject();
                j.field("x", d.x);
                j.field("y", d.y);
                j.endObject();
            }
        j.endArray();
        j.key("defective_links");
        j.beginArray();
        for (const RunRecorder::Defect &d : run->defects())
            if (d.dir >= 0) {
                j.beginObject();
                j.field("x", d.x);
                j.field("y", d.y);
                j.field("dir", d.dir);
                j.endObject();
            }
        j.endArray();
        j.key("links");
        j.beginArray();
        for (int y = 0; y < hm.height(); ++y)
            for (int x = 0; x < hm.width(); ++x)
                for (int dir = 0; dir < 2; ++dir) {
                    // Trim all-zero links and trailing zero buckets
                    // to keep large meshes readable.
                    int last = -1;
                    for (int b = 0;
                         b < HeatmapAccumulator::max_buckets; ++b)
                        if (hm.at(x, y, dir, b) > 0)
                            last = b;
                    if (last < 0)
                        continue;
                    j.beginObject();
                    j.field("x", x);
                    j.field("y", y);
                    j.field("dir", dir);
                    j.key("busy");
                    j.beginArray();
                    for (int b = 0; b <= last; ++b)
                        j.value(hm.at(x, y, dir, b));
                    j.endArray();
                    j.endObject();
                }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

void
TraceSession::writeMetrics(std::ostream &os,
                           const MetricsRegistry *extra) const
{
    MetricsRegistry merged;
    merged.merge(metrics_);
    if (extra)
        merged.merge(*extra);
    writeMetricsJson(os, merged.snapshot());
}

std::string
derivedPath(const std::string &path, const std::string &suffix)
{
    std::string stem = path;
    const std::string ext = ".json";
    if (stem.size() > ext.size()
        && stem.compare(stem.size() - ext.size(), ext.size(), ext)
            == 0)
        stem.resize(stem.size() - ext.size());
    return stem + "." + suffix + ".json";
}

} // namespace qsurf::obs
