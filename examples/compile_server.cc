/**
 * @file
 * Out-of-process compile server speaking the framed wire protocol.
 *
 *   $ ./compile_server --socket=qsurf.sock      # Unix socket server
 *   $ ./compile_server --tcp=127.0.0.1:7700     # TCP server
 *   $ ./compile_server --stdio                  # serve stdin/stdout
 *   $ ./compile_server --sweep-worker --tcp=0.0.0.0:7701
 *                                               # remote sweep worker
 *
 * Wraps a CompileService in wire::serveConnection(): clients connect
 * (examples/compile_service --connect=qsurf.sock or
 * --connect=host:port), exchange framed CompileRequests/Responses,
 * query telemetry, and can shut the server down with a Shutdown
 * frame.  Socket modes serve every connection on its own thread, so
 * one slow or dead client never blocks the others; a client that
 * vanishes mid-exchange or sends a corrupt frame costs exactly its
 * own connection (counted in the aggregate stats printed at exit).
 * Stdio mode serves exactly one connection over pipes (the "spawn a
 * compiler child" integration shape — no socket files involved).
 *
 * --sweep-worker turns the process into a remote shard worker for
 * runShardedSweep() (src/service/shard.h): it serves one sweep
 * fleet's worth of ShardAssign/Row/Done traffic — the grid arrives
 * on the wire, nothing is shared with the parent — running --threads
 * chunks side by side (default min(8, cores)), and exits when a
 * parent finishes with an orderly Shutdown.  TCP with port 0 binds
 * an ephemeral port and prints it, so scripts can scrape the
 * "listening on" line instead of guessing.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.h"
#include "service/service.h"
#include "service/shard.h"
#include "service/wire.h"

namespace wire = qsurf::service::wire;

namespace {

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--socket=PATH | --tcp=HOST:PORT | --stdio]"
                 " [--sweep-worker] [--threads=N]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qsurf;

    std::string socket_path = "qsurf-compile.sock";
    std::string tcp_spec;
    bool stdio = false;
    bool sweep_worker = false;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--socket=", 0) == 0)
            socket_path = arg.substr(9);
        else if (arg.rfind("--tcp=", 0) == 0)
            tcp_spec = arg.substr(6);
        else if (arg == "--stdio")
            stdio = true;
        else if (arg == "--sweep-worker")
            sweep_worker = true;
        else if (arg.rfind("--threads=", 0) == 0)
            threads = std::atoi(arg.c_str() + 10);
        else
            return usage(argv[0]);
    }
    if (stdio && (sweep_worker || !tcp_spec.empty()))
        return usage(argv[0]);

    // A vanishing client must fail the one write, not the server.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        if (stdio) {
            service::CompileService::Options opts;
            opts.num_threads = threads;
            service::CompileService svc(opts);
            wire::ServeStats stats =
                wire::serveConnection(svc, 0, 1);
            std::cerr << "compile_server: served " << stats.requests
                      << " requests over stdio\n";
            return 0;
        }

        // One transport behind two listener types.
        std::unique_ptr<wire::UnixListener> unix_listener;
        std::unique_ptr<wire::TcpListener> tcp_listener;
        if (!tcp_spec.empty()) {
            tcp_listener =
                std::make_unique<wire::TcpListener>(tcp_spec);
            std::cerr << "compile_server: listening on tcp port "
                      << tcp_listener->port()
                      << (sweep_worker ? " (sweep worker)" : "")
                      << "\n";
        } else {
            unix_listener =
                std::make_unique<wire::UnixListener>(socket_path);
            std::cerr << "compile_server: listening on "
                      << socket_path
                      << (sweep_worker ? " (sweep worker)" : "")
                      << "\n";
        }
        auto acceptClient = [&] {
            return tcp_listener ? tcp_listener->accept()
                                : unix_listener->accept();
        };
        auto stopListening = [&] {
            if (tcp_listener)
                tcp_listener->shutdown();
            else
                unix_listener->shutdown();
        };

        if (sweep_worker) {
            // Sweep fleets are serial per worker: one parent drives
            // this process at a time, and an orderly Shutdown means
            // its sweep is complete — exit so supervising scripts
            // see completion.  A parent that vanishes mid-chunk
            // just ends that connection; the next parent can dial
            // in fresh.
            for (;;) {
                int fd = acceptClient();
                if (fd < 0)
                    break;
                service::SweepWorkerEnv env;
                env.base.num_threads = threads;
                bool orderly = service::serveSweepWorker(fd, env);
                ::close(fd);
                if (orderly) {
                    std::cerr << "compile_server: sweep complete, "
                                 "shutting down\n";
                    break;
                }
                std::cerr << "compile_server: sweep parent "
                             "vanished; awaiting the next one\n";
            }
            return 0;
        }

        service::CompileService::Options opts;
        opts.num_threads = threads;
        service::CompileService svc(opts);
        std::cerr << "compile_server: " << svc.threads()
                  << " worker threads\n";

        std::mutex stats_mutex;
        wire::ServeStats totals;
        std::atomic<bool> stopping{false};
        std::vector<std::thread> connections;
        for (;;) {
            int client = acceptClient();
            if (client < 0)
                break; // stopListening() unblocked us.
            connections.emplace_back([&, client] {
                wire::ServeStats stats;
                try {
                    stats =
                        wire::serveConnection(svc, client, client);
                } catch (const FatalError &e) {
                    // One broken client never takes the server
                    // down.
                    std::cerr
                        << "compile_server: connection failed: "
                        << e.what() << "\n";
                }
                ::close(client);
                {
                    std::lock_guard<std::mutex> lock(stats_mutex);
                    totals.frames += stats.frames;
                    totals.requests += stats.requests;
                    totals.errors += stats.errors;
                    totals.corrupt_frames += stats.corrupt_frames;
                    totals.peer_gone |= stats.peer_gone;
                    totals.shutdown |= stats.shutdown;
                }
                if (stats.peer_gone)
                    std::cerr << "compile_server: client vanished "
                                 "mid-session; connection dropped\n";
                if (stats.shutdown && !stopping.exchange(true))
                    stopListening();
            });
        }
        for (std::thread &t : connections)
            t.join();
        std::cerr << "compile_server: shutdown requested; served "
                  << totals.requests << " requests ("
                  << totals.errors << " errors, "
                  << totals.corrupt_frames << " corrupt frames)\n";
    } catch (const FatalError &e) {
        std::cerr << "compile_server: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
