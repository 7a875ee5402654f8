/**
 * @file
 * serve-open: a `compile_server --socket --threads=2` child behind
 * four client connections.
 *
 * The traffic is generated-app requests on the simulated and model
 * backends at d = 5 and 9 (lattice surgery serves the serial apps
 * only), drawn Zipf(1.0) from a fixed set of distinct requests that
 * fits the server's prepare cache, so after warm-up the cache is read,
 * not written.  Three phases follow the warm-up:
 *
 *  - open loop: Poisson arrivals at a fixed 1200 req/s, about a third
 *    of the server's capacity on this mix, each request timed from
 *    its due time, so a stall also charges the requests queued
 *    behind it;
 *  - saturation: each connection keeps two requests in flight, which
 *    bounds queueing well inside the 50 ms SLO while keeping both
 *    server threads busy; its completion rate is the throughput;
 *  - a Telemetry query for the server's cache and batching counters.
 *
 * Every response must equal a direct Backend::run of its request,
 * computed in-process before the server starts.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <random>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include "bench.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "service/artifact.h"
#include "service/wire.h"

namespace qsurf::bench {

namespace {

namespace wire = service::wire;
using apps::AppKind;

constexpr int kConnections = 4;
constexpr double kRate = 1200;
constexpr double kSloMs = 50;
constexpr int kWindow = 2;

/** One distinct request with its reference result. */
struct Distinct
{
    service::CompileRequest req;
    engine::Metrics reference;
};

/**
 * The distinct request set.  Request r has class r % 8, app slot
 * (r / 8) % 5 and size tier (r / 40) % 2, so the popular (low) ranks
 * cover every backend and app in the same proportions whatever the
 * seed; the seed picks the layout seed of every request, and the
 * arrival stream.
 */
std::vector<service::CompileRequest>
makeRequests(const Options &opts)
{
    struct Class
    {
        const char *backend;
        int arbiter;
        bool serial_only;
    };
    static const Class classes[] = {
        {engine::backends::double_defect, 0, false},
        {engine::backends::hybrid_mixed, 0, false},
        {engine::backends::planar, 0, false},
        {engine::backends::surgery_sim, 0, true},
        {engine::backends::double_defect_model, 0, false},
        {engine::backends::hybrid_mixed, 1, false},
        {engine::backends::planar_model, 0, false},
        {engine::backends::surgery_model, 0, false},
    };
    // Per app: {kind, small tier, large tier}.
    struct App
    {
        AppKind kind;
        apps::GenOptions small, large;
    };
    static const App app_table[] = {
        {AppKind::GSE, {8, 0}, {12, 0}},
        {AppKind::SQ, {6, 2}, {8, 3}},
        {AppKind::SHA1, {6, 1}, {8, 2}},
        {AppKind::IsingSemi, {6, 2}, {8, 2}},
        {AppKind::IsingFull, {6, 2}, {8, 2}},
    };
    const size_t n = opts.smoke ? 32 : 240;
    std::vector<service::CompileRequest> out;
    for (size_t r = 0; r < n; ++r) {
        const Class &c = classes[r % 8];
        size_t slot = (r / 8) % 5;
        if (c.serial_only)
            slot %= 2;
        const App &app = app_table[slot];
        bool large = (r / 40) % 2 == 1;
        service::CompileRequest req;
        req.app = app.kind;
        req.gen = large ? app.large : app.small;
        req.backend = c.backend;
        req.config.hybrid_arbiter = c.arbiter;
        req.config.code_distance = (r / 80) % 2 ? 9 : 5;
        // The wire carries numbers as JSON doubles: keep seeds within
        // 53 bits so they arrive intact.
        req.config.seed = engine::mixSeed(opts.seed, r) >> 11;
        out.push_back(req);
    }
    return out;
}

/** The result a direct Backend::run gives @p req, built the way the
 *  compile service builds its work item. */
engine::Metrics
directRun(service::PrepareCache &cache,
          const service::CompileRequest &req)
{
    const engine::Backend &backend =
        engine::Registry::global().get(req.backend);
    std::shared_ptr<const service::CachedProgram> program =
        service::cachedAppProgram(cache, req.app, req.gen,
                                  req.decompose, req.run_peephole);
    engine::WorkItem item;
    item.app = req.app;
    item.config = req.config;
    item.circuit = &program->circ;
    item.circuit_fingerprint = program->fingerprint;
    item.app_name = apps::appSpec(req.app).name;
    backend.prepare(item);
    auto artifact = service::fetchArtifact(cache, backend, item);
    return backend.run(item, artifact.get());
}

/** A launched server and its client connections. */
struct Server
{
    std::unique_ptr<Child> child;
    std::string socket;
    std::vector<int> fds;

    ~Server()
    {
        for (int fd : fds)
            ::close(fd);
        if (!socket.empty())
            ::unlink(socket.c_str());
    }

    /** Close every connection with a Shutdown and reap the server;
     *  @return false when it did not stop cleanly. */
    bool
    stop()
    {
        for (size_t c = 1; c < fds.size(); ++c)
            ::close(fds[c]);
        bool ok = wire::writeFrame(fds[0], wire::FrameType::Shutdown, "")
                      .ok();
        wire::Frame done;
        ok = ok && wire::readFrame(fds[0], done).ok()
            && done.type == wire::FrameType::Done;
        ::close(fds[0]);
        fds.clear();
        ok = child->wait() == 0 && ok;
        ::unlink(socket.c_str());
        socket.clear();
        return ok;
    }
};

/** Spawn compile_server and connect every client; the server
 *  accepts work once each connection has its Hello. */
std::unique_ptr<Server>
launchServer(const Options &opts, int launch, bool quiet)
{
    auto server = std::make_unique<Server>();
    // Relative to the working directory: sockaddr_un paths are short.
    std::string dir = std::filesystem::relative(
                          opts.exe_dir, std::filesystem::current_path())
                          .string();
    server->socket = dir + "/qsb-" + std::to_string(::getpid()) + "-"
        + std::to_string(launch) + ".sock";
    int devnull = quiet ? ::open("/dev/null", O_WRONLY) : -1;
    server->child = std::make_unique<Child>(
        std::vector<std::string>{opts.exe_dir + "/compile_server",
                                 "--socket=" + server->socket,
                                 "--threads=2"},
        -1, devnull);
    if (devnull >= 0)
        ::close(devnull);
    auto deadline = Clock::now() + std::chrono::seconds(20);
    for (int c = 0; c < kConnections; ++c) {
        int fd = -1;
        while ((fd = wire::connectUnix(server->socket)) < 0) {
            fatalIf(Clock::now() > deadline,
                    "compile_server did not come up on ",
                    server->socket);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        server->fds.push_back(fd);
        wire::Frame hello;
        wire::IoResult io = wire::readFrame(fd, hello);
        fatalIf(!io.ok() || hello.type != wire::FrameType::Hello,
                "compile_server sent no Hello: ", io.describe());
    }
    return server;
}

/**
 * While alive, the calling thread runs on every allowed CPU but the
 * last, so a child forked now inherits those; on destruction the
 * thread moves to the last CPU alone, where the load generator's
 * threads then start.  A no-op with fewer than 4 CPUs.
 */
class CpuSplit
{
  public:
    CpuSplit()
    {
        cpu_set_t all;
        CPU_ZERO(&all);
        if (::sched_getaffinity(0, sizeof(all), &all) != 0
            || CPU_COUNT(&all) < 4)
            return;
        int last = -1;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all))
                last = c;
        server_ = all;
        CPU_CLR(last, &server_);
        CPU_ZERO(&client_);
        CPU_SET(last, &client_);
        active_ = ::sched_setaffinity(0, sizeof(server_), &server_) == 0;
    }

    ~CpuSplit()
    {
        if (active_)
            ::sched_setaffinity(0, sizeof(client_), &client_);
    }

    CpuSplit(const CpuSplit &) = delete;
    CpuSplit &operator=(const CpuSplit &) = delete;

  private:
    cpu_set_t server_{}, client_{};
    bool active_ = false;
};

/** Counters of the server's Telemetry frame. */
struct Telemetry
{
    double requests = 0, batches = 0, batched = 0;
    double hits = 0, misses = 0, evictions = 0;
};

Telemetry
queryTelemetry(int fd)
{
    wire::Frame reply;
    fatalIf(!wire::writeFrame(fd, wire::FrameType::Telemetry, "").ok()
                || !wire::readFrame(fd, reply).ok()
                || reply.type != wire::FrameType::Telemetry,
            "telemetry query failed");
    JsonValue doc = parseJson(reply.payload);
    auto num = [](const JsonValue *v, const char *key) {
        const JsonValue *f = v ? v->find(key) : nullptr;
        return f && f->isNumber() ? f->num : 0.0;
    };
    const JsonValue *cache = doc.find("cache");
    return {num(&doc, "requests"), num(&doc, "batches"),
            num(&doc, "batched_requests"), num(cache, "hits"),
            num(cache, "misses"), num(cache, "evictions")};
}

/** One request in flight on a connection. */
struct InFlight
{
    size_t req;
    uint64_t id;
    Clock::time_point due;
    double encode_us;
    size_t bytes;
};

/** Observations of one load phase. */
struct PhaseStats
{
    std::vector<double> latency_ms, queue_ms, late_ms, codec_us,
        prepare_ms, bytes;
    /** Per answered request, in latency_ms order: due and done times. */
    std::vector<Clock::time_point> due, done;
    uint64_t completed = 0;
    LayerCounters sched;
    std::map<std::string, double> run_s;
};

/**
 * The load generator: sends framed requests on the four connections
 * and matches responses (in order per connection) to their requests.
 */
class LoadGen
{
  public:
    LoadGen(const std::vector<int> &fds, const std::vector<Distinct> &set,
            Result &r, Tracer *tracer)
        : set_(set), r_(r), tracer_(tracer), conns_(fds.size())
    {
        for (size_t c = 0; c < fds.size(); ++c)
            conns_[c].fd = fds[c];
    }

    /** Send request @p req due at @p due on connection @p c.  Safe
     *  against a concurrent pump(). */
    void
    send(size_t c, size_t req, Clock::time_point due)
    {
        Conn &conn = conns_[c];
        uint64_t id = next_id_++;
        auto t0 = Clock::now();
        std::string frame = wire::encodeFrame(
            {wire::FrameType::Request,
             wire::encodeCompileRequest(set_[req].req)});
        auto t1 = Clock::now();
        if (tracer_)
            tracer_->add("wire.encode", t0, t1, id, -1, 1);
        {
            std::lock_guard<std::mutex> lock(conn.mutex);
            conn.queue.push_back({req, id, due,
                                  msBetween(t0, t1) * 1e3,
                                  frame.size()});
        }
        stats_.late_ms.push_back(msBetween(due, t0));
        sent_.fetch_add(1);
        if (!writeAll(conn.fd, frame))
            broken_.store(true);
    }

    /**
     * Read responses for up to @p timeout_ms; @p on_response(c) runs
     * after each one on connection c.  @return false once a
     * connection broke.
     */
    template <typename F>
    bool
    pump(int timeout_ms, F &&on_response)
    {
        std::vector<pollfd> pfds;
        for (const Conn &conn : conns_)
            pfds.push_back({conn.fd, POLLIN, 0});
        int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
        if (n < 0)
            return errno == EINTR;
        char buf[65536];
        for (size_t c = 0; c < conns_.size(); ++c) {
            if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ssize_t got = ::read(conns_[c].fd, buf, sizeof(buf));
            if (got <= 0) {
                broken_.store(true);
                return false;
            }
            std::string &in = conns_[c].in;
            in.append(buf, static_cast<size_t>(got));
            size_t offset = 0;
            for (;;) {
                wire::Frame frame;
                size_t used = 0;
                wire::DecodeStatus st = wire::decodeFrame(
                    in.data() + offset, in.size() - offset, frame, used);
                if (st == wire::DecodeStatus::NeedMore)
                    break;
                if (st != wire::DecodeStatus::Ok) {
                    broken_.store(true);
                    return false;
                }
                offset += used;
                handle(c, frame);
                on_response(c);
            }
            in.erase(0, offset);
        }
        return !broken_.load();
    }

    uint64_t sent() const { return sent_.load(); }
    uint64_t received() const { return received_; }
    bool broken() const { return broken_.load(); }

    /** Take the observations gathered since the last call. */
    PhaseStats
    take()
    {
        PhaseStats out = std::move(stats_);
        stats_ = PhaseStats{};
        return out;
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::mutex mutex;
        std::deque<InFlight> queue;
        std::string in;
    };

    static bool
    writeAll(int fd, const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            off += static_cast<size_t>(n);
        }
        return true;
    }

    void
    handle(size_t c, const wire::Frame &frame)
    {
        auto now = Clock::now();
        InFlight f;
        {
            std::lock_guard<std::mutex> lock(conns_[c].mutex);
            if (conns_[c].queue.empty()) {
                broken_.store(true);
                return;
            }
            f = conns_[c].queue.front();
            conns_[c].queue.pop_front();
        }
        ++received_;
        ++r_.attempted;
        const Distinct &d = set_[f.req];
        std::string what = "request " + std::to_string(f.id) + " ("
            + d.req.backend + ")";
        if (frame.type != wire::FrameType::Response) {
            r_.fail(what + ": got a " + wire::frameTypeName(frame.type)
                    + " frame");
            return;
        }
        auto t0 = Clock::now();
        service::CompileResponse resp;
        try {
            resp = wire::decodeCompileResponse(frame.payload);
        } catch (const std::exception &e) {
            r_.fail(what + ": " + e.what());
            return;
        }
        auto t1 = Clock::now();
        if (tracer_)
            tracer_->add("wire.decode", t0, t1, f.id, -1, 2);
        if (!resp.ok()) {
            r_.fail(what + ": " + resp.error);
            return;
        }
        if (canonicalMetrics(resp.metrics)
            != canonicalMetrics(d.reference)) {
            r_.fail(what + " disagrees with a direct Backend::run");
            return;
        }
        double latency = msBetween(f.due, now);
        stats_.due.push_back(f.due);
        stats_.done.push_back(now);
        double codec_us = f.encode_us + msBetween(t0, t1) * 1e3;
        stats_.latency_ms.push_back(latency);
        stats_.codec_us.push_back(codec_us);
        stats_.queue_ms.push_back(latency - resp.prepare_ms - resp.run_ms
                                  - codec_us / 1e3);
        stats_.prepare_ms.push_back(resp.prepare_ms);
        stats_.bytes.push_back(
            static_cast<double>(f.bytes + frame.payload.size()
                                + wire::kHeaderSize));
        stats_.sched.addSched(resp.metrics);
        stats_.run_s[schedFamily(resp.metrics.backend)] +=
            resp.run_ms / 1e3;
        ++stats_.completed;
    }

    const std::vector<Distinct> &set_;
    Result &r_;
    Tracer *tracer_;
    std::vector<Conn> conns_;
    std::atomic<uint64_t> next_id_{0};
    std::atomic<uint64_t> sent_{0};
    uint64_t received_ = 0;
    std::atomic<bool> broken_{false};
    PhaseStats stats_;
};

/** Zipf(1.0) sampler over ranks 0..n-1. */
class Zipf
{
  public:
    explicit Zipf(size_t n)
    {
        double total = 0;
        for (size_t k = 1; k <= n; ++k)
            cdf_.push_back(total += 1.0 / static_cast<double>(k));
        for (double &c : cdf_)
            c /= total;
    }

    size_t
    operator()(std::mt19937_64 &rng) const
    {
        double u = std::uniform_real_distribution<double>(0, 1)(rng);
        return std::min<size_t>(
            static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u)
                                - cdf_.begin()),
            cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

/** Wait for every sent request's response, up to @p grace. */
void
drain(LoadGen &gen, Result &r, std::chrono::seconds grace)
{
    auto deadline = Clock::now() + grace;
    while (gen.received() < gen.sent() && !gen.broken()
           && Clock::now() < deadline)
        gen.pump(50, [](size_t) {});
    if (gen.received() < gen.sent()) {
        uint64_t lost = gen.sent() - gen.received();
        r.attempted += lost;
        for (uint64_t k = 0; k < lost; ++k)
            r.fail("request never answered");
    }
}

/** Closed loop: keep @p window requests in flight per connection,
 *  drawing the next from @p next(), until it returns false. */
template <typename Next>
void
closedLoop(LoadGen &gen, Result &r, int window, Next &&next)
{
    size_t req = 0;
    bool more = true;
    for (int w = 0; w < window && more; ++w)
        for (size_t c = 0; c < size_t{kConnections} && more; ++c)
            if ((more = next(req)))
                gen.send(c, req, Clock::now());
    while (more && !gen.broken())
        gen.pump(50, [&](size_t c) {
            if (more && (more = next(req)))
                gen.send(c, req, Clock::now());
        });
    drain(gen, r, std::chrono::seconds(30));
}

/** Open loop: Poisson arrivals at kRate for @p seconds. */
PhaseStats
openLoop(LoadGen &gen, Result &r, const Zipf &zipf, std::mt19937_64 &rng,
         double seconds)
{
    std::vector<std::pair<double, size_t>> schedule;
    std::exponential_distribution<double> gap(kRate);
    for (double t = gap(rng); t < seconds; t += gap(rng))
        schedule.emplace_back(t, zipf(rng));
    auto start = Clock::now() + std::chrono::milliseconds(5);
    std::atomic<bool> sending{true};
    std::thread sender([&] {
        size_t k = 0;
        for (const auto &[t, req] : schedule) {
            auto due = start
                + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(t));
            std::this_thread::sleep_until(due);
            gen.send(k++ % kConnections, req, due);
            if (gen.broken())
                break;
        }
        sending.store(false);
    });
    while ((sending.load() || gen.received() < gen.sent())
           && !gen.broken()
           && Clock::now() < start + std::chrono::duration_cast<
                   Clock::duration>(std::chrono::duration<double>(
                   seconds + 30)))
        gen.pump(20, [](size_t) {});
    sender.join();
    drain(gen, r, std::chrono::seconds(5));
    return gen.take();
}

/**
 * Record the open loop's latency: the median over one-second windows
 * of each window's p50 and p99.  A window holds ~1200 requests, so
 * its p99 has 12 beyond it, and a burst of host contention sways the
 * window it falls in, not the median.
 */
void
recordOpenLatency(Result &r, const PhaseStats &ph, double seconds)
{
    const double window_s = 1;
    size_t windows =
        std::max<size_t>(1, static_cast<size_t>(seconds / window_s));
    Clock::time_point start = ph.due.empty()
        ? Clock::now()
        : *std::min_element(ph.due.begin(), ph.due.end());
    std::vector<std::vector<double>> per(windows);
    for (size_t k = 0; k < ph.latency_ms.size(); ++k) {
        auto w = static_cast<size_t>(msBetween(start, ph.due[k]) / 1e3
                                     / window_s);
        per[std::min(w, windows - 1)].push_back(ph.latency_ms[k]);
    }
    std::vector<double> p50, p99;
    for (const std::vector<double> &v : per) {
        p50.push_back(percentile(v, 0.5));
        p99.push_back(percentile(v, 0.99));
    }
    r.metrics["op_p50_ms"] = percentile(p50, 0.5);
    r.metrics["op_tail_ms"] = percentile(p99, 0.5);
    std::ostringstream os;
    os << ph.completed << " requests open-loop at " << kRate
       << " req/s over " << kConnections << " connections; op_tail_ms "
       << "is the median of " << windows << " windows' p99 (each about "
       << ph.completed / windows << " samples, "
       << ph.completed / windows / 100 << " beyond it)";
    r.note(os.str());
    if (r.metrics["op_tail_ms"] > kSloMs)
        r.note("p99 exceeds the " + std::to_string(kSloMs)
               + " ms SLO at the fixed rate");
}

void
recordServeLayers(Result &r, const Tracer &tracer, const PhaseStats &ph,
                  const Telemetry &t0, const Telemetry &t1)
{
    LayerCounters c = ph.sched;
    c.cache.hits = static_cast<uint64_t>(t1.hits - t0.hits);
    c.cache.misses = static_cast<uint64_t>(t1.misses - t0.misses);
    c.cache.evictions = static_cast<uint64_t>(t1.evictions - t0.evictions);
    recordLayers(r, tracer, c);
    // The scheduler runs in the server: its time comes from each
    // response's run_ms, its counters from the response metrics.
    for (const std::string &family : schedFamilies()) {
        auto run = ph.run_s.find(family);
        double self = run == ph.run_s.end() ? 0.0 : run->second;
        auto cycles = c.family_cycles.find(family);
        r.metrics["sched." + family + ".self_s"] = self;
        r.metrics["sched." + family + ".ns_per_cycle"] =
            cycles != c.family_cycles.end() && cycles->second > 0
            ? self * 1e9 / cycles->second
            : 0.0;
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    r.metrics["cache.fetch_us"] = percentile(ph.prepare_ms, 0.5) * 1e3;
    r.metrics["wire.codec_us"] = mean(ph.codec_us);
    r.metrics["wire.bytes_per_req"] = mean(ph.bytes);
    r.metrics["queue.wait_p50_ms"] = percentile(ph.queue_ms, 0.5);
    r.metrics["queue.wait_p99_ms"] = percentile(ph.queue_ms, 0.99);
    double requests = t1.requests - t0.requests;
    double batches = t1.batches - t0.batches;
    r.metrics["service.batch_mean"] = batches > 0 ? requests / batches : 0;
    r.metrics["service.batched_frac"] =
        requests > 0 ? (t1.batched - t0.batched) / requests : 0;
    r.metrics["loadgen.late_p99_ms"] = percentile(ph.late_ms, 0.99);
}

} // namespace

Result
runServeOpen(const Options &opts)
{
    Result r;
    // Set-up: server spawn until a Hello arrives on every connection.
    const int launches = opts.smoke ? 3 : kSetupLaunches;
    std::vector<double> setup;
    for (int k = 0; k < launches; ++k) {
        auto start = Clock::now();
        std::unique_ptr<Server> s = launchServer(opts, k, true);
        setup.push_back(secondsSince(start));
        if (!s->stop())
            r.fail("set-up launch " + std::to_string(k)
                   + " did not shut down cleanly");
    }
    r.metrics["setup_s"] = percentile(setup, 0.5);

    // References: a direct Backend::run of every distinct request.
    std::vector<Distinct> set;
    {
        service::PrepareCache cache;
        std::vector<engine::Metrics> refs;
        for (service::CompileRequest &req : makeRequests(opts)) {
            engine::Metrics m = directRun(cache, req);
            std::string err =
                invariantError(m, req.config.code_distance);
            if (!err.empty())
                r.fail(req.backend + " reference: " + err);
            r.mix(canonicalMetrics(m));
            refs.push_back(m);
            set.push_back({std::move(req), std::move(m)});
        }
        if (!opts.trace)
            recordQuality(r, refs);
    }

    // The load generator gets a core of its own and the server the
    // rest, so neither steals the other's CPU: without this, on a
    // 4-vCPU guest, thread placement alone moved p99 by 2x from run
    // to run.
    std::unique_ptr<Server> server;
    {
        CpuSplit split;
        server = launchServer(opts, launches, false);
    }
    LoadGen gen(server->fds, set, r, nullptr);
    std::mt19937_64 rng(engine::mixSeed(opts.seed, 0x10ad));
    Zipf zipf(set.size());

    // Warm-up: every distinct request once, so the measured phases
    // read a warm cache.
    size_t warm = 0;
    closedLoop(gen, r, kWindow, [&](size_t &req) {
        req = warm;
        return warm++ < set.size();
    });
    gen.take();
    Telemetry t0 = queryTelemetry(server->fds[0]);

    double open_s = (opts.trace ? 0.5 : 0.75) * opts.seconds;
    PhaseStats open = openLoop(gen, r, zipf, rng, open_s);
    if (!opts.trace)
        recordOpenLatency(r, open, open_s);

    if (opts.trace) {
        Tracer tracer;
        LoadGen traced(server->fds, set, r, &tracer);
        PhaseStats ph = openLoop(traced, r, zipf, rng, open_s);
        Telemetry t1 = queryTelemetry(server->fds[0]);
        recordServeLayers(r, tracer, ph, t0, t1);
        r.metrics["trace.overhead"] = percentile(ph.latency_ms, 0.5)
                / percentile(open.latency_ms, 0.5)
            - 1.0;
        r.gate("cache.hit_ratio", r.metrics["cache.hit_ratio"], true,
               0.95);
        r.gate("loadgen.late_p99_ms", r.metrics["loadgen.late_p99_ms"],
               false, 2.0);
        tracer.writeChrome(opts.trace_file, "serve-open", 4);
    } else {
        // Saturation: the server's throughput with queueing bounded
        // by the in-flight window.
        double sat_s = 0.25 * opts.seconds;
        auto start = Clock::now();
        auto end = start
            + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(sat_s));
        closedLoop(gen, r, kWindow, [&](size_t &req) {
            req = zipf(rng);
            return Clock::now() < end;
        });
        PhaseStats sat = gen.take();
        // The median completion rate over runs of 256 consecutive
        // completions: a burst of host contention slows a few runs,
        // not the median.
        std::vector<double> ends;
        for (Clock::time_point t : sat.done)
            ends.push_back(msBetween(start, t) / 1e3);
        std::sort(ends.begin(), ends.end());
        const size_t group = 256;
        std::vector<double> rates;
        for (size_t k = group; k < ends.size(); k += group)
            rates.push_back(static_cast<double>(group)
                            / (ends[k] - ends[k - group]));
        r.metrics["ops_per_s"] = rates.size() >= 3
            ? percentile(rates, 0.5)
            : static_cast<double>(sat.completed) / secondsSince(start);
        std::ostringstream os;
        os << sat.completed << " requests saturated (" << kWindow
           << " in flight per connection), p99 "
           << percentile(sat.latency_ms, 0.99) << " ms";
        r.note(os.str());
    }

    r.metrics["peak_rss_mb"] = peakRssMiB(server->child->pid());
    if (!server->stop())
        r.fail("compile_server did not shut down cleanly");
    return r;
}

} // namespace qsurf::bench
