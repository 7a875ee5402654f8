#include "service/service.h"

#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/arena.h"
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

/** @return the bit pattern of @p v: exact, unlike a decimal print. */
uint64_t
bitsOf(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/**
 * The batch identity of a request: the program source, the backend,
 * and every RunConfig field any backend folds into its artifactKey()
 * — including the technology, which sets the resolved code distance,
 * and the fabric damage.  Two requests with equal keys are
 * guaranteed to resolve to the same prepared program and machine
 * artifact, so one prepare serves both.  (Fields outside the key —
 * timeouts, EPR windows — may still differ; each request keeps its
 * own run.)
 */
std::string
batchKey(const CompileRequest &req)
{
    const qec::Technology &tech = req.config.tech;
    std::ostringstream os;
    if (req.circuit)
        os << "fp=" << std::hex << circuit::fingerprint(*req.circuit)
           << std::dec;
    else
        os << "app=" << static_cast<int>(req.app)
           << "/n=" << req.gen.problem_size
           << "/it=" << req.gen.max_iterations;
    os << "/rz=" << req.decompose.rz_sequence_length << "/tf="
       << std::hex << bitsOf(req.decompose.rz_t_fraction) << std::dec
       << "/sw=" << (req.decompose.expand_swap ? 1 : 0) << "/ph="
       << (req.run_peephole ? 1 : 0) << "|" << req.backend << "|s="
       << req.config.seed << "/d=" << req.config.code_distance
       << "/p=" << req.config.policy << "/obj="
       << req.config.layout_objective << "/lane="
       << req.config.lane_spacing << "/r="
       << req.config.num_simd_regions << "/cap="
       << req.config.region_capacity << "/leg="
       << (req.config.legacy_baseline ? 1 : 0) << "/tech=" << std::hex
       << bitsOf(tech.p_physical) << "," << bitsOf(tech.t_two_qubit_ns)
       << "," << bitsOf(tech.single_qubit_speedup) << ","
       << bitsOf(tech.t_measure_ns) << std::dec
       << engine::defectKeySuffix(req.config.defectParams());
    return os.str();
}

} // namespace

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
    pending.key = batchKey(req);
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
        s.batches = total_batches;
        s.batched_requests = total_batched;
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
    // batch execution stops touching the global heap.
    Arena arena;
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock,
                    [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // Stopping, queue drained.
            batch.push_back(std::move(queue.front()));
            queue.pop_front();
            // Pull every queued request with the same prepare
            // identity into this batch: one artifact fetch, N runs.
            // The key is a copy: push_back below may reallocate.
            const std::string key = batch.front().key;
            for (auto it = queue.begin(); it != queue.end();) {
                if (it->key == key) {
                    batch.push_back(std::move(*it));
                    it = queue.erase(it);
                } else {
                    ++it;
                }
            }
            ++total_batches;
            if (batch.size() > 1)
                total_batched += batch.size();
        }
        serveBatch(std::move(batch), use_arena ? &arena : nullptr);
    }
}

void
CompileService::serveBatch(std::vector<Pending> batch, Arena *arena)
{
    if (arena)
        arena->reset();
    Arena::Scope scope(arena);
    // Prepare once for the whole batch (all entries share the batch
    // key, hence the same program and machine artifact).
    const engine::Backend *backend = nullptr;
    std::shared_ptr<const CachedProgram> program;
    std::shared_ptr<const engine::PreparedArtifact> artifact;
    double prepare_ms = 0;
    std::string prepare_error;
    try {
        const CompileRequest &req = batch.front().req;
        backend = &registry.get(req.backend);
        auto start = Clock::now();
        // The analytic models take a circuit too (to derive the
        // computation size), so resolve the program unless the
        // request brings an explicit KQ instead.
        if (backend->needsCircuit() || req.config.kq <= 0)
            program = req.circuit
                ? cachedProgram(cache, *req.circuit, req.decompose,
                                req.run_peephole)
                : cachedAppProgram(cache, req.app, req.gen,
                                   req.decompose, req.run_peephole);
        engine::WorkItem probe;
        probe.app = req.app;
        probe.config = req.config;
        if (program) {
            probe.circuit = &program->circ;
            probe.circuit_fingerprint = program->fingerprint;
        }
        artifact = fetchArtifact(cache, *backend, probe);
        prepare_ms = msSince(start);
    } catch (const std::exception &e) {
        prepare_error = e.what();
    }
    metrics.observe("service.batch.size",
                    static_cast<double>(batch.size()));
    metrics.observe("service.prepare_ms", prepare_ms);

    for (Pending &pending : batch) {
        // Nested scope: the batch reset bounds the whole group, the
        // per-request rewind recycles one request's scratch for the
        // next without invalidating the shared prepare artifacts
        // (those live in the cache, never in the arena).
        Arena::Checkpoint cp;
        Arena::Stats arena_before;
        if (arena) {
            cp = arena->checkpoint();
            arena_before = arena->stats();
        }
        CompileResponse response;
        response.prepare_ms = prepare_ms;
        response.batch_size = batch.size();
        if (!prepare_error.empty()) {
            response.error = prepare_error;
            metrics.observe("service.request.latency_ms",
                            msSince(pending.enqueued));
            metrics.inc("service.errors");
            pending.promise.set_value(std::move(response));
            continue;
        }
        try {
            const CompileRequest &req = pending.req;
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
            backend->prepare(item);
            auto start = Clock::now();
            response.metrics = backend->run(item, artifact.get());
            response.run_ms = msSince(start);
        } catch (const std::exception &e) {
            response.error = e.what();
        }
        if (arena) {
            Arena::Stats after = arena->stats();
            metrics.observe("service.arena.allocs",
                            static_cast<double>(
                                after.allocations
                                - arena_before.allocations));
            metrics.observe(
                "service.arena.bytes",
                static_cast<double>(after.bytes
                                    - arena_before.bytes));
            arena->rewind(cp);
        }
        metrics.observe("service.run_ms", response.run_ms);
        metrics.observe("service.request.latency_ms",
                        msSince(pending.enqueued));
        if (!response.ok())
            metrics.inc("service.errors");
        pending.promise.set_value(std::move(response));
    }
}

} // namespace qsurf::service
