/**
 * @file
 * CompileService: a long-lived, in-process compile server.
 *
 * Instead of paying circuit generation, decomposition and seeded
 * layout construction per call (the batch-tool model every figure
 * bench historically followed), a service accepts a stream of
 * CompileRequests and keeps the shared PrepareCache warm across
 * them.  The same cache memoizes each result: a repeated request is
 * answered from its result key without running the backend again.
 * Every request returns the same uniform engine::Metrics a direct
 * Backend::run() produces — bit-identical, since backends are
 * deterministic in the request and the cached artifact path is
 * bit-identical by construction.
 */

#ifndef QSURF_SERVICE_SERVICE_H
#define QSURF_SERVICE_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "circuit/circuit.h"
#include "circuit/decompose.h"
#include "engine/backend.h"
#include "engine/registry.h"
#include "obs/metrics.h"
#include "service/cache.h"

namespace qsurf {
class Arena;
} // namespace qsurf

namespace qsurf::service {

/** One compile job: a program source plus a backend and run config. */
struct CompileRequest
{
    /** Generated application to compile (when `circuit` is null). */
    apps::AppKind app = apps::AppKind::SQ;

    /** Generator knobs for `app`. */
    apps::GenOptions gen;

    /**
     * Caller-built logical circuit; when set it replaces the
     * generated app as the program source (the service decomposes
     * it, caching by content fingerprint).
     */
    std::shared_ptr<const circuit::Circuit> circuit;

    /** Frontend decomposition settings. */
    circuit::DecomposeConfig decompose;

    /** Run logical peephole optimization before decomposing. */
    bool run_peephole = false;

    /** Display-name override; empty derives one from the source. */
    std::string label;

    /** Backend registry name to run on. */
    std::string backend = engine::backends::planar;

    /** Run parameters (seed, distance, policy, objective, ...). */
    engine::RunConfig config;
};

/** Outcome of one request. */
struct CompileResponse
{
    /** Uniform result record; valid when ok(). */
    engine::Metrics metrics;

    /** Wall time of the prepare stage (program + machine artifact),
     *  in ms.  Warm requests see the cache-hit cost, not the build
     *  cost; a result-memo hit reports its lookup time. */
    double prepare_ms = 0;

    /** Wall time of Backend::run() for this request, in ms; 0 for a
     *  result-memo hit, which runs no backend. */
    double run_ms = 0;

    /** Always 1; kept so the wire protocol's Response frames are
     *  unchanged now that requests are not batched. */
    uint64_t batch_size = 1;

    /** Failure description; empty on success. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Counter snapshot of one CompileService. */
struct ServiceStats
{
    uint64_t requests = 0; ///< Requests submitted.
    uint64_t served = 0;   ///< Requests a worker has taken up.
    CacheStats cache;      ///< The shared cache's counters.
};

/**
 * @return the result-memo key of @p req: the program identity (app
 * and generator knobs, or the caller circuit's fingerprint), the
 * decompose and peephole settings, the backend name and every
 * RunConfig field but `trace` (engine::writeRunConfig).  The label is
 * left out: no backend reads the display name.  "" when the request
 * holds a non-finite number, which JSON cannot carry exactly; such a
 * request is not memoized.
 */
std::string resultKey(const CompileRequest &req);

/**
 * The in-process compile server.  submit() is thread-safe; worker
 * threads drain the queue until destruction (the destructor finishes
 * queued work before joining).  Responses are deterministic in the
 * request alone — caching changes wall time, never metrics.
 *
 * Results are memoized in the cache under resultKey(), through
 * PrepareCache::getOrBuild: the memo is LRU-bounded with the rest of
 * the cache, concurrent identical requests run the backend once, and
 * every lookup shows in the cache's hit/miss counters.  A request
 * that fails is never stored.  A traced request (config.trace set)
 * bypasses the memo, so its trace records a real run.
 */
class CompileService
{
  public:
    struct Options
    {
        /** Worker threads; < 1 uses engine::defaultThreads(). */
        int num_threads = 0;

        /** Cache to keep warm; null uses PrepareCache::global(). */
        PrepareCache *cache = nullptr;

        /** Backend registry; null uses Registry::global(). */
        const engine::Registry *registry = nullptr;

        /** Telemetry registry ("service.*" counters, gauges and
         *  latency histograms); null uses
         *  obs::MetricsRegistry::global(). */
        obs::MetricsRegistry *metrics = nullptr;

        /**
         * Bind a per-worker scratch arena around request execution,
         * reset per request, so steady-state request scratch (BFS
         * working sets and friends) never touches the global heap.
         * Results are bit-identical on or off; the per-request arena
         * activity feeds the "service.arena.*" histograms.
         */
        bool use_arena = true;
    };

    CompileService();
    explicit CompileService(const Options &opts);
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Enqueue @p req; the future resolves when a worker finishes it.
     * Must not be called during destruction.
     */
    std::future<CompileResponse> submit(CompileRequest req);

    /** Synchronous convenience: submit @p req and wait. */
    CompileResponse compile(CompileRequest req);

    /** @return a snapshot of the service counters. */
    ServiceStats stats() const;

    /**
     * Publish point-in-time gauges to the telemetry registry: the
     * current queue depth plus the shared cache's totals and
     * per-shard hit/miss/residency ("cache.shard<i>.*").  The
     * streaming counters and histograms ("service.requests",
     * "service.request.latency_ms", ...) are recorded live by
     * submit() and the workers; call this before dumping metrics.
     */
    void exportTelemetry() const;

    /** @return the number of worker threads. */
    int threads() const;

    /**
     * The telemetry registry this service records into.  Connection
     * handlers (wire::serveConnection) use it for the wire-level
     * health counters — "service.wire.corrupt_frames",
     * "service.wire.peer_gone" — so fleet dashboards see broken
     * peers next to request latency.
     */
    obs::MetricsRegistry &metricsRegistry() const;

  private:
    struct Pending
    {
        CompileRequest req;
        std::promise<CompileResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    void serve(Pending &pending, Arena *arena);

    /** Prepare and run @p req on its backend, recording the two
     *  stage times in @p response. */
    engine::Metrics execute(const CompileRequest &req,
                            CompileResponse &response) const;

    PrepareCache &cache;
    const engine::Registry &registry;
    obs::MetricsRegistry &metrics;
    bool use_arena;

    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool stopping = false;
    uint64_t total_requests = 0;
    uint64_t total_served = 0;

    std::vector<std::thread> workers;
};

} // namespace qsurf::service

#endif // QSURF_SERVICE_SERVICE_H
