#include "service/service.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/arena.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/sweep.h"
#include "service/artifact.h"

namespace qsurf::service {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now()
                                                     - start)
        .count();
}

} // namespace

std::string
resultKey(const CompileRequest &req)
{
    std::ostringstream os;
    os << "result|";
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    if (req.circuit) {
        j.field("fp", circuit::fingerprint(*req.circuit));
    } else {
        j.field("app", static_cast<int>(req.app));
        j.field("n", req.gen.problem_size);
        j.field("it", req.gen.max_iterations);
    }
    j.field("rz", req.decompose.rz_sequence_length);
    j.field("tf", req.decompose.rz_t_fraction);
    j.field("sw", req.decompose.expand_swap);
    j.field("ph", req.run_peephole);
    j.field("backend", req.backend);
    j.key("config");
    engine::writeRunConfig(j, req.config);
    j.endObject();
    std::string key = os.str();
    // JSON writes every non-finite double as null, so a key holding
    // one could alias two requests.  (A string that merely contains
    // "null" only costs its request the memo.)
    return key.find("null") == std::string::npos ? key : std::string();
}

CompileService::CompileService() : CompileService(Options{}) {}

CompileService::CompileService(const Options &opts)
    : cache(opts.cache ? *opts.cache : PrepareCache::global()),
      registry(opts.registry ? *opts.registry
                             : engine::Registry::global()),
      metrics(opts.metrics ? *opts.metrics
                           : obs::MetricsRegistry::global()),
      use_arena(opts.use_arena)
{
    int n = opts.num_threads >= 1 ? opts.num_threads
                                  : engine::defaultThreads();
    workers.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t)
        workers.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &t : workers)
        t.join();
}

std::future<CompileResponse>
CompileService::submit(CompileRequest req)
{
    Pending pending;
    pending.req = std::move(req);
    pending.enqueued = Clock::now();
    std::future<CompileResponse> future =
        pending.promise.get_future();
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(mutex);
        panicIf(stopping, "submit() on a stopping CompileService");
        ++total_requests;
        queue.push_back(std::move(pending));
        depth = queue.size();
    }
    metrics.inc("service.requests");
    metrics.set("service.queue.depth",
                static_cast<double>(depth));
    cv.notify_one();
    return future;
}

CompileResponse
CompileService::compile(CompileRequest req)
{
    return submit(std::move(req)).get();
}

ServiceStats
CompileService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lock(mutex);
        s.requests = total_requests;
        s.served = total_served;
    }
    s.cache = cache.stats();
    return s;
}

void
CompileService::exportTelemetry() const
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        metrics.set("service.queue.depth",
                    static_cast<double>(queue.size()));
    }
    CacheStats totals = cache.stats();
    metrics.set("cache.hits", static_cast<double>(totals.hits));
    metrics.set("cache.misses", static_cast<double>(totals.misses));
    metrics.set("cache.evictions",
                static_cast<double>(totals.evictions));
    metrics.set("cache.entries",
                static_cast<double>(totals.entries));
    std::vector<ShardStats> per_shard = cache.shardStats();
    for (size_t i = 0; i < per_shard.size(); ++i) {
        std::string prefix =
            "cache.shard" + std::to_string(i) + ".";
        metrics.set(prefix + "hits",
                    static_cast<double>(per_shard[i].hits));
        metrics.set(prefix + "misses",
                    static_cast<double>(per_shard[i].misses));
        metrics.set(prefix + "entries",
                    static_cast<double>(per_shard[i].entries));
    }
}

int
CompileService::threads() const
{
    return static_cast<int>(workers.size());
}

obs::MetricsRegistry &
CompileService::metricsRegistry() const
{
    return metrics;
}

void
CompileService::workerLoop()
{
    // One scratch arena per worker thread, living as long as the
    // thread: after warm-up it reaches a single coalesced block and
    // request execution stops touching the global heap.
    Arena arena;
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock,
                    [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // Stopping, queue drained.
            pending = std::move(queue.front());
            queue.pop_front();
            ++total_served;
        }
        serve(pending, use_arena ? &arena : nullptr);
    }
}

void
CompileService::serve(Pending &pending, Arena *arena)
{
    const CompileRequest &req = pending.req;
    Arena::Stats arena_before;
    if (arena) {
        arena->reset();
        arena_before = arena->stats();
    }
    Arena::Scope scope(arena);
    CompileResponse response;
    try {
        auto start = Clock::now();
        // A trace must record a real run: no lookup, no store.
        std::string key = req.config.trace ? std::string()
                                           : resultKey(req);
        if (key.empty()) {
            response.metrics = execute(req, response);
        } else {
            bool ran = false;
            PrepareCache::Value memo = cache.getOrBuild(key, [&] {
                ran = true;
                // On the heap, not in the worker arena: the memo
                // outlives this request.
                return std::static_pointer_cast<const void>(
                    std::make_shared<const engine::Metrics>(
                        execute(req, response)));
            });
            if (!ran)
                response.prepare_ms = msSince(start);
            response.metrics =
                *std::static_pointer_cast<const engine::Metrics>(memo);
        }
    } catch (const std::exception &e) {
        response.error = e.what();
    }
    if (arena) {
        Arena::Stats after = arena->stats();
        metrics.observe("service.arena.allocs",
                        static_cast<double>(after.allocations
                                            - arena_before.allocations));
        metrics.observe(
            "service.arena.bytes",
            static_cast<double>(after.bytes - arena_before.bytes));
    }
    metrics.observe("service.prepare_ms", response.prepare_ms);
    metrics.observe("service.run_ms", response.run_ms);
    metrics.observe("service.request.latency_ms",
                    msSince(pending.enqueued));
    if (!response.ok())
        metrics.inc("service.errors");
    pending.promise.set_value(std::move(response));
}

engine::Metrics
CompileService::execute(const CompileRequest &req,
                        CompileResponse &response) const
{
    const engine::Backend &backend = registry.get(req.backend);
    auto start = Clock::now();
    // The analytic models take a circuit too (to derive the
    // computation size), so resolve the program unless the request
    // brings an explicit KQ instead.
    std::shared_ptr<const CachedProgram> program;
    if (backend.needsCircuit() || req.config.kq <= 0)
        program = req.circuit
            ? cachedProgram(cache, *req.circuit, req.decompose,
                            req.run_peephole)
            : cachedAppProgram(cache, req.app, req.gen, req.decompose,
                               req.run_peephole);
    engine::WorkItem item;
    item.app = req.app;
    item.config = req.config;
    if (program) {
        item.circuit = &program->circ;
        item.circuit_fingerprint = program->fingerprint;
    }
    if (!req.label.empty())
        item.app_name = req.label;
    else if (req.circuit && !req.circuit->name().empty())
        item.app_name = req.circuit->name();
    else
        item.app_name = apps::appSpec(req.app).name;
    backend.prepare(item);
    std::shared_ptr<const engine::PreparedArtifact> artifact =
        fetchArtifact(cache, backend, item);
    response.prepare_ms = msSince(start);
    start = Clock::now();
    engine::Metrics m = backend.run(item, artifact.get());
    response.run_ms = msSince(start);
    return m;
}

} // namespace qsurf::service
