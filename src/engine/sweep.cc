#include "engine/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "circuit/decompose.h"
#include "common/arena.h"
#include "common/json.h"
#include "common/logging.h"
#include "service/artifact.h"

namespace qsurf::engine {

namespace {

constexpr const char *kRowsStreamName = "qsurf-sweep-rows";
constexpr int kRowsStreamVersion = 1;

/** The rows path the options resolve to, or "" when streaming is
 *  off. */
std::string
resolveRowsPath(const SweepOptions &opts)
{
    if (!opts.stream_rows)
        return {};
    if (!opts.rows_path.empty())
        return opts.rows_path;
    if (!opts.json_path.empty())
        return opts.json_path + ".rows";
    return {};
}

} // namespace

size_t
SweepGrid::points() const
{
    size_t n = apps.size() * backends.size();
    forEachAxis(*this,
                [&](const char *, const auto &axis) { n *= axis.size(); });
    return n;
}

uint64_t
sweepGridFingerprint(const SweepGrid &grid)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const AppPoint &app : grid.apps) {
        fields::hash(h, app.kind);
        fields::hash(h, app.gen);
        fields::hash(h, app.label);
        fields::hash(h, app.circuit ? circuit::fingerprint(*app.circuit)
                                    : uint64_t{0});
    }
    fields::hash(h, grid.backends);
    forEachAxis(grid, [&](const char *, const auto &axis) {
        fields::hash(h, axis);
    });
    fields::hash(h, grid.base);
    return h;
}

namespace {

/** Expansion with the per-point backend pointers run() needs. */
std::vector<SweepPoint>
expandPoints(const SweepGrid &grid, const Registry &registry,
             std::vector<const Backend *> *item_backend)
{
    fatalIf(grid.apps.empty(), "sweep grid needs at least one app");
    fatalIf(grid.backends.empty(),
            "sweep grid needs at least one backend");
    forEachAxis(grid, [](const char *name, const auto &axis) {
        fatalIf(axis.empty(), "sweep grid axis '", name,
                "' must be non-empty");
    });
    grid.base.tech.check();

    // Resolve backends up front so name typos fail before any work.
    std::vector<const Backend *> backends;
    backends.reserve(grid.backends.size());
    for (const std::string &name : grid.backends)
        backends.push_back(&registry.get(name));

    // Expand the grid: app (outer) x size x distance x policy x
    // arbiter x layout objective x EPR window x defect density x
    // backend (inner).
    std::vector<SweepPoint> points;
    points.reserve(grid.points());
    if (item_backend)
        item_backend->reserve(grid.points());
    for (size_t a = 0; a < grid.apps.size(); ++a) {
        const AppPoint &app = grid.apps[a];
        std::string app_name = app.label;
        if (app_name.empty() && app.circuit)
            app_name = app.circuit->name();
        if (app_name.empty())
            app_name = apps::appSpec(app.kind).name;
        for (double kq : grid.sizes) {
            for (int d : grid.distances) {
                for (int policy : grid.policies) {
                    for (int arbiter : grid.arbiters) {
                        for (int objective : grid.layout_objectives) {
                            for (int window : grid.epr_windows) {
                              for (double defect : grid.defects) {
                                for (size_t b = 0;
                                     b < backends.size(); ++b) {
                                    SweepPoint p;
                                    p.index = points.size();
                                    p.app_index = a;
                                    p.app_name = app_name;
                                    p.backend = grid.backends[b];
                                    p.policy = policy;
                                    p.arbiter = arbiter;
                                    p.layout_objective = objective;
                                    p.epr_window = window;
                                    p.distance = d;
                                    p.kq = kq;
                                    p.defect = defect;
                                    points.push_back(std::move(p));
                                    if (item_backend)
                                        item_backend->push_back(
                                            backends[b]);
                                }
                              }
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

} // namespace

std::vector<SweepPoint>
expandSweepPoints(const SweepGrid &grid, const Registry &registry)
{
    return expandPoints(grid, registry, nullptr);
}

std::vector<SweepPoint>
SweepDriver::run(const SweepGrid &grid, const SweepOptions &opts) const
{
    std::vector<const Backend *> item_backend;
    std::vector<SweepPoint> points =
        expandPoints(grid, registry, &item_backend);

    service::PrepareCache *cache = opts.use_cache
        ? (opts.cache ? opts.cache : &service::PrepareCache::global())
        : nullptr;

    // Resume: merge rows an interrupted run already finished, so
    // only the remainder executes.
    std::vector<uint8_t> done(points.size(), 0);
    std::string rows_path = resolveRowsPath(opts);
    size_t resumed = 0;
    size_t rows_valid_bytes = 0;
    if (opts.resume && !rows_path.empty()) {
        resumed = loadSweepRows(rows_path, grid, opts.title, points,
                                done, &rows_valid_bytes);
        if (resumed)
            inform("resuming sweep: ", resumed, " of ",
                   points.size(), " points from '", rows_path, "'");
    }

    auto selected = [&](size_t i) {
        return !done[i]
            && (!opts.point_filter || opts.point_filter(i));
    };

    // Generate and decompose each app's circuit once, serially, so
    // workers share immutable inputs and generation cost is paid per
    // app point rather than per grid point.  Only apps some selected
    // point actually needs are built (a shard worker skips apps
    // entirely outside its slice).  With the cache on, the
    // decomposed program is shared across sweeps too (and its
    // fingerprint rides along so artifact keys skip rehashing).
    // The analytic models take the circuit too when the point has
    // no explicit KQ: they derive the computation size from it.
    auto wants_circuit = [&](size_t i) {
        return item_backend[i]->needsCircuit() || points[i].kq <= 0;
    };
    std::vector<bool> app_needed(grid.apps.size(), false);
    for (size_t i = 0; i < points.size(); ++i)
        if (selected(i) && wants_circuit(i))
            app_needed[points[i].app_index] = true;

    std::vector<std::shared_ptr<const circuit::Circuit>> circuits(
        grid.apps.size());
    std::vector<uint64_t> fingerprints(grid.apps.size(), 0);
    for (size_t a = 0; a < grid.apps.size(); ++a) {
        if (!app_needed[a])
            continue;
        const AppPoint &app = grid.apps[a];
        if (cache) {
            std::shared_ptr<const service::CachedProgram> prog =
                app.circuit
                ? service::cachedProgram(*cache, *app.circuit)
                : service::cachedAppProgram(*cache, app.kind,
                                            app.gen);
            // Aliasing share: the circuit pointer keeps the whole
            // program alive.
            circuits[a] = {prog, &prog->circ};
            fingerprints[a] = prog->fingerprint;
        } else {
            circuits[a] = std::make_shared<const circuit::Circuit>(
                circuit::decompose(
                    app.circuit ? *app.circuit
                                : apps::generate(app.kind, app.gen)));
        }
    }

    // Prepare (validate) every selected item up front on the
    // caller's thread: configuration errors surface as clean
    // fatal()s, not as exceptions racing out of the pool.
    std::vector<WorkItem> items(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        if (!selected(i))
            continue;
        const SweepPoint &p = points[i];
        const Backend *backend = item_backend[i];
        WorkItem &item = items[i];
        item.app = grid.apps[p.app_index].kind;
        item.app_name = p.app_name;
        if (wants_circuit(i)) {
            item.circuit = circuits[p.app_index].get();
            item.circuit_fingerprint = fingerprints[p.app_index];
        }
        item.config = grid.base;
        item.config.policy = p.policy;
        item.config.hybrid_arbiter = p.arbiter;
        item.config.layout_objective = p.layout_objective;
        if (p.epr_window >= 0)
            item.config.epr_window_steps = p.epr_window;
        item.config.code_distance = p.distance;
        item.config.kq = p.kq;
        // The defect axis sets the density; map seed and explicit
        // spec ride along from the base config.
        item.config.defect_density = p.defect;
        // Seeds vary per application point, never along the policy/
        // distance/size axes: a figure compares those on the *same*
        // seeded machine layout (the paper's methodology), and the
        // derivation depends only on the grid, never on threading.
        item.config.seed = mixSeed(grid.base.seed, p.app_index);
        backend->prepare(item);
    }

    // The row stream: one flushed line per completed point, so a
    // killed run leaves a valid, resumable partial file.  Appends
    // after a successful resume — first dropping any torn tail the
    // killed run left, or the next row would fuse with it —
    // otherwise truncates and writes a fresh header.
    std::ofstream rows_stream;
    std::mutex row_mutex;
    if (!rows_path.empty()) {
        if (resumed) {
            std::error_code ec;
            std::filesystem::resize_file(rows_path,
                                         rows_valid_bytes, ec);
            fatalIf(static_cast<bool>(ec), "cannot truncate '",
                    rows_path, "': ", ec.message());
        }
        rows_stream.open(rows_path, resumed
                                        ? std::ios::app
                                        : std::ios::trunc);
        fatalIf(!rows_stream, "cannot open '", rows_path,
                "' for writing");
        if (!resumed) {
            writeSweepRowsHeader(rows_stream, grid, opts.title);
            rows_stream << "\n";
            rows_stream.flush();
        }
    }

    // Execute across the pool.  Work items are independent and
    // deterministic in their own (config, circuit), so any
    // assignment of items to threads produces identical results.
    int threads = opts.num_threads >= 1 ? opts.num_threads
                                        : defaultThreads();
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&] {
        // Per-worker scratch arena, reset per point: BFS working
        // sets and row assembly bump-allocate here instead of the
        // global heap (results are bit-identical either way).
        Arena arena;
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= points.size() || failed.load())
                return;
            if (!selected(i))
                continue;
            try {
                if (opts.use_arena)
                    arena.reset();
                Arena::Scope scope(opts.use_arena ? &arena
                                                  : nullptr);
                Arena::Stats arena_before = arena.stats();
                uint64_t heap_before = opts.heap_alloc_counter
                    ? opts.heap_alloc_counter()
                    : 0;
                // Artifact fetch is timed apart from the run: warm
                // sweeps report near-zero prepare_ms while wall_ms
                // keeps measuring the simulation itself.  Concurrent
                // workers landing on one key build it once
                // (single-flight) and share the artifact.
                std::shared_ptr<const PreparedArtifact> artifact;
                if (cache) {
                    auto prep_start = std::chrono::steady_clock::now();
                    artifact = service::fetchArtifact(
                        *cache, *item_backend[i], items[i]);
                    points[i].prepare_ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now()
                            - prep_start)
                            .count();
                }
                // Each item is executed by exactly one worker, so
                // wiring a per-run recorder into its config races
                // with nothing.
                std::unique_ptr<obs::RunRecorder> rec;
                if (opts.trace) {
                    rec = opts.trace->beginRun(i, points[i].app_name,
                                               points[i].backend);
                    items[i].config.trace = rec.get();
                }
                auto start = std::chrono::steady_clock::now();
                points[i].metrics =
                    item_backend[i]->run(items[i], artifact.get());
                points[i].wall_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (rec) {
                    items[i].config.trace = nullptr;
                    opts.trace->endRun(std::move(rec));
                }
                if (opts.use_arena) {
                    Arena::Stats after = arena.stats();
                    points[i].arena_allocs =
                        after.allocations - arena_before.allocations;
                    points[i].arena_bytes =
                        after.bytes - arena_before.bytes;
                }
                if (opts.heap_alloc_counter)
                    points[i].heap_allocs =
                        opts.heap_alloc_counter() - heap_before;
                if (opts.metrics) {
                    opts.metrics->observe("sweep.phase.prepare_ms",
                                          points[i].prepare_ms);
                    opts.metrics->observe("sweep.phase.run_ms",
                                          points[i].wall_ms);
                }
                if (rows_stream.is_open() || opts.on_row) {
                    // Assembled in the arena: steady-state row
                    // emission costs zero heap allocations.
                    ArenaStreamBuf buf;
                    std::ostream ros(&buf);
                    writeSweepRowLine(ros, points[i]);
                    std::string_view line(buf.data(), buf.size());
                    std::lock_guard<std::mutex> lock(row_mutex);
                    if (rows_stream.is_open()) {
                        rows_stream << line << "\n";
                        rows_stream.flush();
                    }
                    if (opts.on_row)
                        opts.on_row(points[i], line);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true);
                return;
            }
        }
    };

    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(threads));
        for (int t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);

    if (!opts.json_path.empty()) {
        std::ofstream os(opts.json_path);
        fatalIf(!os, "cannot open '", opts.json_path,
                "' for writing");
        writeSweepJson(os, opts.title, points, cache);
    }
    return points;
}

int
defaultThreads()
{
    // QSURF_THREADS overrides the interactive clamp, so batch
    // machines can use their full width without touching every
    // bench's flags.
    if (const char *env = std::getenv("QSURF_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 1 << 16));
        warn("ignoring invalid QSURF_THREADS='", env,
             "' (want a positive integer)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(8u, std::max(1u, hw)));
}

void
writeSweepRow(JsonWriter &j, const SweepPoint &p, bool timing)
{
    j.beginObject();
    j.field("app", p.app_name);
    j.field("backend", p.backend);
    j.field("code", qec::codeKindName(p.metrics.code));
    j.field("policy", p.policy);
    j.field("arbiter", p.arbiter);
    j.field("layout_objective", p.layout_objective);
    if (p.epr_window >= 0)
        j.field("epr_window", p.epr_window);
    j.field("code_distance", p.metrics.code_distance);
    if (p.kq > 0)
        j.field("kq", p.kq);
    // Emitted only when damaged, like the optional axes above, so
    // density-0 rows stay byte-identical to pre-defect output.
    if (p.defect > 0)
        j.field("defect", p.defect);
    j.field("schedule_cycles", p.metrics.schedule_cycles);
    j.field("critical_path_cycles", p.metrics.critical_path_cycles);
    j.field("ratio", p.metrics.ratio());
    j.field("physical_qubits", p.metrics.physical_qubits);
    j.field("seconds", p.metrics.seconds);
    j.field("space_time", p.metrics.spaceTime());
    if (timing) {
        j.field("wall_ms", p.wall_ms);
        j.field("prepare_ms", p.prepare_ms);
        j.field("sim_cycles_per_sec", p.simCyclesPerSec());
        j.field("arena_allocs", p.arena_allocs);
        j.field("arena_bytes", p.arena_bytes);
        j.field("heap_allocs", p.heap_allocs);
    }
    if (!p.metrics.extras.empty()) {
        j.key("extras");
        j.beginObject();
        for (const auto &[name, v] : p.metrics.extras)
            j.field(name, v);
        j.endObject();
    }
    j.endObject();
}

void
writeSweepRowLine(std::ostream &os, const SweepPoint &p)
{
    // The "index" field rides outside writeSweepRow on purpose: the
    // full document's rows are implicitly ordered, a streamed /
    // wire-framed row must identify itself.
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("index", static_cast<uint64_t>(p.index));
    j.key("row");
    writeSweepRow(j, p);
    j.endObject();
}

SweepPoint
parseSweepRowLine(const std::string &line)
{
    constexpr std::string_view kRow = "sweep row field";
    JsonValue doc = parseJson(line);
    fatalIf(!doc.isObject(), "sweep row line is not an object");
    SweepPoint p;
    p.index = doc.require<uint64_t>("index", kRow);
    const JsonValue &row = doc.member("row", kRow);
    row.expect(JsonValue::Kind::Object, kRow, "row");
    p.app_name = row.require<std::string>("app", kRow);
    p.backend = row.require<std::string>("backend", kRow);
    p.metrics.backend = p.backend;
    p.metrics.code =
        qec::parseCodeKind(row.require<std::string>("code", kRow));
    p.policy = row.require<int>("policy", kRow);
    p.arbiter = row.require<int>("arbiter", kRow);
    p.layout_objective = row.require<int>("layout_objective", kRow);
    p.epr_window = row.get<int>("epr_window", -1, kRow);
    p.metrics.code_distance = row.require<int>("code_distance", kRow);
    p.kq = row.get<double>("kq", 0, kRow);
    p.defect = row.get<double>("defect", 0, kRow);
    p.metrics.schedule_cycles =
        row.require<uint64_t>("schedule_cycles", kRow);
    p.metrics.critical_path_cycles =
        row.require<uint64_t>("critical_path_cycles", kRow);
    p.metrics.physical_qubits =
        row.require<double>("physical_qubits", kRow);
    p.metrics.seconds = row.require<double>("seconds", kRow);
    p.wall_ms = row.get<double>("wall_ms", 0, kRow);
    p.prepare_ms = row.get<double>("prepare_ms", 0, kRow);
    p.arena_allocs = row.get<uint64_t>("arena_allocs", 0, kRow);
    p.arena_bytes = row.get<uint64_t>("arena_bytes", 0, kRow);
    p.heap_allocs = row.get<uint64_t>("heap_allocs", 0, kRow);
    if (const JsonValue *extras = row.find("extras")) {
        extras->expect(JsonValue::Kind::Object, kRow, "extras");
        for (const auto &[name, v] : extras->members)
            p.metrics.extras.emplace_back(
                name, v.as<double>("sweep row extra", name));
    }
    return p;
}

std::string
canonicalSweepRows(const std::vector<SweepPoint> &points)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginArray();
    for (const SweepPoint &p : points)
        writeSweepRow(j, p, /*timing=*/false);
    j.endArray();
    return os.str();
}

void
writeSweepRowsHeader(std::ostream &os, const SweepGrid &grid,
                     const std::string &title)
{
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("stream", kRowsStreamName);
    j.field("version", kRowsStreamVersion);
    j.field("title", title);
    j.field("points", static_cast<uint64_t>(grid.points()));
    j.field("grid_fingerprint", sweepGridFingerprint(grid));
    j.endObject();
}

size_t
loadSweepRows(const std::string &path, const SweepGrid &grid,
              const std::string &title,
              std::vector<SweepPoint> &points,
              std::vector<uint8_t> &done, size_t *valid_bytes)
{
    if (valid_bytes)
        *valid_bytes = 0;
    std::ifstream in(path);
    if (!in)
        return 0;
    std::string line;
    if (!std::getline(in, line) || in.eof())
        return 0;
    // Header check: never merge rows from a different experiment.
    try {
        constexpr std::string_view kHeader = "row stream header field";
        JsonValue header = parseJson(line);
        if (header.require<std::string>("stream", kHeader)
                != kRowsStreamName
            || header.require<uint64_t>("grid_fingerprint", kHeader)
                != sweepGridFingerprint(grid)
            || header.require<uint64_t>("points", kHeader)
                != grid.points()
            || header.require<std::string>("title", kHeader) != title) {
            warn("row stream '", path,
                 "' does not match this sweep; running fresh");
            return 0;
        }
    } catch (const FatalError &) {
        warn("row stream '", path,
             "' has a malformed header; running fresh");
        return 0;
    }

    // Bytes of the validated prefix: every line below only counts
    // once it parsed AND carried its terminating newline.
    size_t consumed = line.size() + 1;
    size_t merged = 0;
    while (std::getline(in, line)) {
        if (in.eof()) {
            // The writer terminates every row with a newline, so an
            // unterminated final line is torn by definition — even
            // when it happens to parse.
            warn("row stream '", path,
                 "' ends in a torn line; ignoring it");
            break;
        }
        if (line.empty()) {
            consumed += 1;
            continue;
        }
        SweepPoint row;
        try {
            row = parseSweepRowLine(line);
        } catch (const FatalError &) {
            // A torn final line is exactly what a killed run leaves
            // behind; everything before it is still good.
            warn("row stream '", path,
                 "' ends in a torn line; ignoring it");
            break;
        }
        fatalIf(row.index >= points.size(), "row stream '", path,
                "' names out-of-range index ", row.index);
        SweepPoint &dst = points[row.index];
        fatalIf(row.app_name != dst.app_name
                    || row.backend != dst.backend
                    || row.policy != dst.policy
                    || row.arbiter != dst.arbiter
                    || row.layout_objective != dst.layout_objective
                    || row.epr_window != dst.epr_window
                    || row.defect != dst.defect,
                "row stream '", path, "' row ", row.index,
                " disagrees with the grid expansion");
        size_t index = dst.index;
        size_t app_index = dst.app_index;
        int distance = dst.distance;
        double kq = dst.kq;
        dst = std::move(row);
        dst.index = index;
        dst.app_index = app_index;
        dst.distance = distance;
        dst.kq = kq;
        if (!done[dst.index])
            ++merged;
        done[dst.index] = 1;
        consumed += line.size() + 1;
    }
    if (valid_bytes)
        *valid_bytes = consumed;
    return merged;
}

void
writeSweepJson(std::ostream &os, const std::string &title,
               const std::vector<SweepPoint> &points,
               const service::PrepareCache *cache, bool timing)
{
    JsonWriter j(os);
    j.beginObject();
    j.field("title", title);
    j.field("points", static_cast<uint64_t>(points.size()));
    j.key("results");
    j.beginArray();
    for (const SweepPoint &p : points)
        writeSweepRow(j, p, timing);
    j.endArray();
    if (cache) {
        service::CacheStats s = cache->stats();
        j.key("cache");
        j.beginObject();
        j.field("hits", s.hits);
        j.field("misses", s.misses);
        j.field("evictions", s.evictions);
        j.field("entries", s.entries);
        j.field("hit_ratio", s.hitRatio());
        j.endObject();
    }
    j.endObject();
    os << "\n";
}

} // namespace qsurf::engine
