/**
 * @file
 * Compile-service demo: a long-lived compile server, in-process or
 * over the wire.
 *
 *   $ ./compile_service                        # in-process service
 *   $ ./compile_server --socket=qsurf.sock &   # ... then:
 *   $ ./compile_service --connect=qsurf.sock   # framed-protocol client
 *   $ ./compile_service --connect=127.0.0.1:7700   # ... over TCP
 *
 * Submits a mixed request stream — the same programs repeatedly,
 * across backends, layout objectives and seeds — and prints each
 * response with its prepare/run wall-time split.  Requests after the
 * first for any (program, layout) identity hit the server's shared
 * PrepareCache, so their prepare column collapses to ~0, and a
 * repeated request is answered from the result memo without running
 * its backend (run ms 0), while the metrics stay bit-identical to a
 * cold compile; the closing stats show the cache's hit ratio.  In
 * --connect mode the identical stream goes
 * through wire frames instead of function calls (and finishes by
 * asking the server to shut down), demonstrating that the two paths
 * return the same metrics.
 */

#include <future>
#include <iostream>
#include <vector>

#include "common/table.h"
#include "engine/registry.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "service/wire.h"

namespace {

using namespace qsurf;
namespace wire = qsurf::service::wire;

/** The demo request stream: two rounds so round two is fully warm. */
std::vector<service::CompileRequest>
requestStream()
{
    std::vector<service::CompileRequest> stream;
    for (int round = 0; round < 2; ++round)
        for (auto kind : {apps::AppKind::SQ, apps::AppKind::GSE})
            for (const char *backend :
                 {engine::backends::surgery_sim,
                  engine::backends::hybrid_mixed})
                for (int objective : {0, 2}) {
                    service::CompileRequest req;
                    req.app = kind;
                    req.gen = {8, 2};
                    req.backend = backend;
                    req.config.code_distance = 3;
                    req.config.layout_objective = objective;
                    stream.push_back(req);
                }
    return stream;
}

/** Run the stream against a remote compile_server and shut it down.
 *  @p spec is a Unix-socket path or "host:port". */
int
runClient(const std::string &spec)
{
    // The server may still be binding its socket (or coming up on
    // another host); capped exponential backoff covers both.
    wire::RetryPolicy policy;
    policy.max_attempts = 10;
    int fd = wire::connectWithRetry(spec, policy);
    if (fd < 0) {
        std::cerr << "cannot connect to '" << spec << "'\n";
        return 1;
    }
    wire::Client client(fd, fd);
    std::cout << "connected to compile server at " << spec
              << "\n\n";

    std::vector<service::CompileRequest> stream = requestStream();
    Table t("Compile stream over the wire (two rounds)");
    t.header({"app", "backend", "obj", "cycles", "prep ms",
              "run ms"});
    for (size_t i = 0; i < stream.size(); ++i) {
        service::CompileResponse r = client.compile(stream[i]);
        if (!r.ok()) {
            std::cerr << "request " << i << " failed: " << r.error
                      << "\n";
            return 1;
        }
        t.addRow(apps::appSpec(stream[i].app).name,
                 stream[i].backend,
                 stream[i].config.layout_objective,
                 r.metrics.schedule_cycles,
                 Table::fixed(r.prepare_ms, 2),
                 Table::fixed(r.run_ms, 2));
    }
    t.print(std::cout);

    // A damaged-fabric request: the defect spec crosses the wire
    // and must come back priced.  The defect extras only exist when
    // the server saw the spec, so a codec that dropped the field
    // fails here rather than silently compiling a perfect mesh.
    service::CompileRequest damaged;
    damaged.app = apps::AppKind::SQ;
    damaged.gen = {8, 2};
    damaged.backend = engine::backends::surgery_sim;
    damaged.config.code_distance = 3;
    damaged.config.defect_spec =
        "{\"dead_tiles\": [[0, 0], [1, 1]], "
        "\"disabled_links\": [[2, 0, 2, 1]]}";
    service::CompileResponse dr = client.compile(damaged);
    if (!dr.ok()) {
        std::cerr << "defect-spec request failed: " << dr.error
                  << "\n";
        return 1;
    }
    if (dr.metrics.extra("defective_nodes") <= 0
        || dr.metrics.extra("defective_links") <= 0) {
        std::cerr << "defect spec did not survive the wire round "
                     "trip\n";
        return 1;
    }
    std::cout << "\ndefect-spec round trip: "
              << dr.metrics.extra("defective_nodes")
              << " dead nodes, "
              << dr.metrics.extra("defective_links")
              << " disabled links priced into "
              << dr.metrics.schedule_cycles << " cycles\n";

    std::cout << "\nserver telemetry: " << client.telemetry()
              << "\n";
    client.shutdown();
    std::cout << "server shut down cleanly\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--connect=", 0) == 0)
            return runClient(arg.substr(10));
        std::cerr << "usage: " << argv[0]
                  << " [--connect=PATH | --connect=HOST:PORT]\n";
        return 2;
    }

    service::CompileService svc;
    std::cout << "compile service up, " << svc.threads()
              << " worker threads\n\n";

    // Submit everything up front, then collect.
    std::vector<service::CompileRequest> stream = requestStream();
    std::vector<std::future<service::CompileResponse>> futures;
    for (const service::CompileRequest &req : stream)
        futures.push_back(svc.submit(req));

    Table t("Compile stream (two rounds of the same requests)");
    t.header({"app", "backend", "obj", "cycles", "prep ms",
              "run ms"});
    for (size_t i = 0; i < futures.size(); ++i) {
        service::CompileResponse r = futures[i].get();
        if (!r.ok()) {
            std::cerr << "request " << i << " failed: " << r.error
                      << "\n";
            return 1;
        }
        t.addRow(apps::appSpec(stream[i].app).name,
                 stream[i].backend,
                 stream[i].config.layout_objective,
                 r.metrics.schedule_cycles,
                 Table::fixed(r.prepare_ms, 2),
                 Table::fixed(r.run_ms, 2));
    }
    t.print(std::cout);

    service::ServiceStats stats = svc.stats();
    std::cout << "\n" << stats.requests
              << " requests; cache: " << stats.cache.hits
              << " hits / " << stats.cache.misses
              << " misses (hit ratio "
              << Table::fixed(stats.cache.hitRatio(), 2) << "), "
              << stats.cache.entries << " entries\n";
    // Service telemetry: the "service.*" stream metrics recorded
    // live by submit() and the workers, plus the point-in-time
    // queue/cache gauges exportTelemetry() publishes.
    svc.exportTelemetry();
    obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    Table tele("Service telemetry");
    tele.header({"histogram", "count", "mean", "p50", "p95"});
    for (const auto &[name, h] : snap.histograms) {
        if (name.compare(0, 8, "service.") != 0)
            continue;
        tele.addRow(name, h.count, Table::fixed(h.mean(), 2),
                    Table::fixed(h.p50, 2), Table::fixed(h.p95, 2));
    }
    std::cout << "\n";
    tele.print(std::cout);
    std::cout << "gauges:";
    for (const auto &[name, v] : snap.gauges)
        if (name.compare(0, 6, "cache.") == 0
                ? name.find(".shard") == std::string::npos
                : name == "service.queue.depth")
            std::cout << " " << name << "=" << v;
    std::cout << "\n";

    std::cout << "\nTry: submit your own circuit by setting "
                 "CompileRequest::circuit, or point\nseveral "
                 "clients at one service: each repeat is answered "
                 "from the result memo.\n";
    return 0;
}
