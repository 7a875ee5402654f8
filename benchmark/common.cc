#include "bench.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/arena.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "service/artifact.h"

namespace qsurf::bench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// -------------------------------------------------------------- result

void
Result::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 10)
        failures.push_back(why);
}

void
Result::check(const engine::Metrics &m, int requested_distance,
              const std::string &what)
{
    ++attempted;
    std::string err = invariantError(m, requested_distance);
    if (!err.empty())
        fail(what + ": " + err);
}

void
Result::gate(const std::string &name, double value, bool at_least,
             double threshold)
{
    gates.push_back({name, value, at_least, threshold});
}

void
Result::mix(std::string_view bytes)
{
    for (unsigned char c : bytes) {
        digest ^= c;
        digest *= 0x100000001b3ull;
    }
}

bool
Result::correct() const
{
    if (failed != 0 || attempted == 0)
        return false;
    for (const Gate &g : gates)
        if (!g.pass())
            return false;
    return true;
}

std::string
invariantError(const engine::Metrics &m, int requested_distance)
{
    if (m.critical_path_cycles == 0)
        return "critical path is 0";
    if (m.schedule_cycles < m.critical_path_cycles)
        return "schedule " + std::to_string(m.schedule_cycles)
            + " beats its critical path "
            + std::to_string(m.critical_path_cycles);
    if (m.code_distance <= 0)
        return "no code distance";
    if (requested_distance > 0 && !schedFamily(m.backend).empty()
        && m.code_distance != requested_distance)
        return "ran at d=" + std::to_string(m.code_distance)
            + ", requested d=" + std::to_string(requested_distance);
    if (!(m.physical_qubits > 0) || !(m.seconds > 0))
        return "no space-time cost";
    return {};
}

std::string
canonicalMetrics(const engine::Metrics &m)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("backend", m.backend);
    j.field("code", static_cast<int>(m.code));
    j.field("d", m.code_distance);
    j.field("cycles", m.schedule_cycles);
    j.field("cp", m.critical_path_cycles);
    j.field("qubits", m.physical_qubits);
    j.field("seconds", m.seconds);
    for (const auto &[name, v] : m.extras)
        j.field(name, v);
    j.endObject();
    return os.str();
}

std::string
schedFamily(const std::string &backend)
{
    if (backend == engine::backends::double_defect)
        return "braid";
    if (backend == engine::backends::surgery_sim)
        return "surgery";
    if (backend == engine::backends::hybrid_mixed)
        return "hybrid";
    if (backend == engine::backends::planar)
        return "planar";
    return {};
}

const std::vector<std::string> &
schedFamilies()
{
    static const std::vector<std::string> families{"braid", "surgery",
                                                   "hybrid", "planar"};
    return families;
}

// ---------------------------------------------------------- statistics

int
passesFor(double budget, double first_pass, int min_passes)
{
    int fill = first_pass > 0
        ? static_cast<int>(std::lround(budget / first_pass))
        : 1;
    return std::max(min_passes, fill);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        q.q1 = q.median = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles' default 'exclusive' method, n = 4.
    const long n = 4;
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> cut{};
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        cut[static_cast<size_t>(i - 1)] =
            (v[static_cast<size_t>(j - 1)]
                 * static_cast<double>(n - delta)
             + v[static_cast<size_t>(j)] * static_cast<double>(delta))
            / static_cast<double>(n);
    }
    q.q1 = cut[0];
    q.median = cut[1];
    q.q3 = cut[2];
    return q;
}

void
recordLatency(Result &r, const std::vector<double> &ms, double tail_q,
              const std::string &p50_name,
              const std::string &tail_name)
{
    double p50 = percentile(ms, 0.5);
    double tail = percentile(ms, tail_q);
    size_t beyond = static_cast<size_t>(
        std::count_if(ms.begin(), ms.end(),
                      [&](double x) { return x > tail; }));
    r.metrics[p50_name] = p50;
    r.metrics[tail_name] = tail;
    std::ostringstream os;
    os << tail_name << " is p" << tail_q * 100 << " of " << ms.size()
       << " samples (" << beyond << " beyond it)";
    if (beyond < 10)
        os << " - fewer than 10 beyond the tail, lengthen the run";
    r.note(os.str());
}

namespace {

/** @return the geometric mean of the positive values of @p v. */
double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    size_t n = 0;
    for (double x : v)
        if (x > 0) {
            log_sum += std::log(x);
            ++n;
        }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace

void
recordQuality(Result &r, const std::vector<engine::Metrics> &results)
{
    std::vector<double> ratios, spacetimes;
    for (const engine::Metrics &m : results) {
        ratios.push_back(m.ratio());
        spacetimes.push_back(m.spaceTime());
    }
    r.metrics["sim_makespan_ratio"] = geomean(ratios);
    r.metrics["sim_spacetime"] = geomean(spacetimes);
    r.note("design quality over " + std::to_string(results.size())
           + " results");
}

// -------------------------------------------------------------- tracer

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const char *name, uint64_t id, int parent)
{
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, id, 0});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int index)
{
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ns = now;
}

int
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, uint64_t id, int parent, int tid)
{
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    };
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, ns(start), ns(end), parent, id, tid});
    return static_cast<int>(spans_.size() - 1);
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, uint64_t id,
                     int parent)
    : tracer_(tracer)
{
    if (tracer_)
        index_ = tracer_->begin(name, id, parent);
}

Tracer::Scope::~Scope()
{
    if (tracer_)
        tracer_->end(index_);
}

std::map<std::string, Tracer::Layer>
Tracer::layers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));

    std::map<std::string, Layer> out;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Union of the child intervals, clipped to this span.
        iv.clear();
        for (int c : children[i]) {
            const Span &k = spans_[static_cast<size_t>(c)];
            int64_t a = std::max(k.start_ns, s.start_ns);
            int64_t b = std::min(k.end_ns, s.end_ns);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_a = 0, cur_b = -1;
        for (const auto &[a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a)
                    covered += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a)
            covered += cur_b - cur_a;
        Layer &l = out[s.name];
        double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        l.total_s += dur;
        l.self_s += dur - static_cast<double>(covered) * 1e-9;
    }
    return out;
}

void
Tracer::writeChrome(const std::string &path, const std::string &process,
                    int pid) const
{
    std::ofstream os(path);
    fatalIf(!os, "cannot open '", path, "' for writing");
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.key("traceEvents");
    j.beginArray();
    j.beginObject();
    j.field("name", "process_name");
    j.field("ph", "M");
    j.field("pid", pid);
    j.key("args");
    j.beginObject();
    j.field("name", process);
    j.endObject();
    j.endObject();
    for (const Span &s : spans_) {
        j.beginObject();
        j.field("name", s.name);
        j.field("ph", "X");
        j.field("pid", pid);
        j.field("tid", s.tid);
        j.field("ts", static_cast<double>(s.start_ns) * 1e-3);
        j.field("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
        j.key("args");
        j.beginObject();
        j.field("id", s.id);
        j.field("parent", s.parent);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.endObject();
    os << "\n";
}

// ------------------------------------------------------- sweep replay

void
LayerCounters::addSched(const engine::Metrics &m)
{
    placement_failures += m.extra("placement_failures");
    bfs_detours += m.extra("bfs_detours");
    drops += m.extra("drops");
    // The braid scheduler names its transposed-route fallback
    // "yx_fallbacks"; the patch schedulers "transpose_fallbacks".
    transpose_fallbacks +=
        m.extra("transpose_fallbacks") + m.extra("yx_fallbacks");
    if (m.has("ff_skipped_cycles")) {
        ff_skipped_cycles += m.extra("ff_skipped_cycles");
        ff_cycles += static_cast<double>(m.schedule_cycles);
    }
    std::string family = schedFamily(m.backend);
    if (!family.empty())
        family_cycles[family] += static_cast<double>(m.schedule_cycles);
}

std::shared_ptr<const engine::PreparedArtifact>
tracedFetch(service::PrepareCache &cache,
            const engine::Backend &backend,
            const engine::WorkItem &item, Tracer *tracer, uint64_t id,
            int parent, LayerCounters &counters)
{
    std::string key = backend.artifactKey(item);
    if (key.empty())
        return nullptr;
    ++counters.cache_fetches;
    Tracer::Scope fetch(tracer, "cache", id, parent);
    service::PrepareCache::Value v =
        cache.getOrBuild(key, [&]() -> service::PrepareCache::Value {
            ++counters.layout_builds;
            Tracer::Scope build(tracer, "layout", id, fetch.index());
            return std::static_pointer_cast<const void>(
                backend.buildArtifact(item));
        });
    return std::static_pointer_cast<const engine::PreparedArtifact>(v);
}

engine::Metrics
tracedRun(const engine::Backend &backend, const engine::WorkItem &item,
          const engine::PreparedArtifact *artifact, Tracer *tracer,
          uint64_t id, int parent, LayerCounters &counters)
{
    static const std::map<std::string, const char *> span_names{
        {"braid", "sched.braid"},
        {"surgery", "sched.surgery"},
        {"hybrid", "sched.hybrid"},
        {"planar", "sched.planar"}};
    auto it = span_names.find(schedFamily(backend.name()));
    const char *span = it == span_names.end() ? "sched.model"
                                              : it->second;
    // A fresh arena per run, bound as the scratch, as the sweep
    // driver and the compile service run every point.
    Arena arena;
    Arena::Scope scope(&arena);
    uint64_t heap_before = heapAllocs();
    engine::Metrics m;
    {
        Tracer::Scope s(tracer, span, id, parent);
        m = backend.run(item, artifact);
    }
    counters.heap_allocs += heapAllocs() - heap_before;
    counters.arena_allocs += arena.stats().allocations;
    counters.addSched(m);
    return m;
}

std::vector<engine::SweepPoint>
replayGrid(const engine::SweepGrid &grid, Tracer *tracer,
           uint64_t id_base, LayerCounters &counters, Result &r)
{
    const engine::Registry &registry = engine::Registry::global();
    std::vector<engine::SweepPoint> points =
        engine::expandSweepPoints(grid, registry);
    service::PrepareCache cache;
    for (engine::SweepPoint &p : points) {
        uint64_t id = id_base + p.index;
        const engine::Backend &backend = registry.get(p.backend);
        const engine::AppPoint &app = grid.apps[p.app_index];
        Tracer::Scope point(tracer, "point", id);

        engine::WorkItem item;
        item.app = app.kind;
        item.app_name = p.app_name;
        std::shared_ptr<const service::CachedProgram> program;
        if (backend.needsCircuit()) {
            Tracer::Scope fe(tracer, "frontend", id, point.index());
            uint64_t misses = cache.stats().misses;
            program = service::cachedAppProgram(cache, app.kind,
                                                app.gen);
            if (cache.stats().misses != misses)
                counters.gates_out +=
                    static_cast<uint64_t>(program->circ.size());
            item.circuit = &program->circ;
            item.circuit_fingerprint = program->fingerprint;
        }
        item.config = grid.base;
        item.config.policy = p.policy;
        item.config.hybrid_arbiter = p.arbiter;
        item.config.layout_objective = p.layout_objective;
        if (p.epr_window >= 0)
            item.config.epr_window_steps = p.epr_window;
        item.config.code_distance = p.distance;
        item.config.kq = p.kq;
        item.config.defect_density = p.defect;
        item.config.seed = engine::mixSeed(grid.base.seed, p.app_index);
        backend.prepare(item);

        auto fetch_start = Clock::now();
        std::shared_ptr<const engine::PreparedArtifact> artifact =
            tracedFetch(cache, backend, item, tracer, id,
                        point.index(), counters);
        p.prepare_ms = msBetween(fetch_start, Clock::now());
        auto run_start = Clock::now();
        p.metrics = tracedRun(backend, item, artifact.get(), tracer, id,
                              point.index(), counters);
        p.wall_ms = msBetween(run_start, Clock::now());

        std::string line;
        {
            Tracer::Scope enc(tracer, "row.encode", id, point.index());
            std::ostringstream os;
            engine::writeSweepRowLine(os, p);
            line = os.str();
        }
        counters.row_bytes += line.size();
        ++counters.rows;
        engine::SweepPoint parsed;
        {
            Tracer::Scope dec(tracer, "row.parse", id, point.index());
            parsed = engine::parseSweepRowLine(line);
        }
        if (engine::canonicalSweepRows({parsed})
            != engine::canonicalSweepRows({p}))
            r.fail("row " + std::to_string(p.index)
                   + " changed through encode/parse");
    }
    service::CacheStats s = cache.stats();
    counters.cache.hits += s.hits;
    counters.cache.misses += s.misses;
    counters.cache.evictions += s.evictions;
    return points;
}

namespace {

/** @return the summed self time of span @p name (0 when absent). */
double
layerSelf(const std::map<std::string, Tracer::Layer> &layers,
          const std::string &name)
{
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s;
}

} // namespace

void
recordLayers(Result &r, const Tracer &tracer, const LayerCounters &c)
{
    std::map<std::string, Tracer::Layer> layers = tracer.layers();
    auto &m = r.metrics;
    double qasm_s = layerSelf(layers, "qasm");
    m["qasm.self_s"] = qasm_s;
    m["qasm.mb_per_s"] = qasm_s > 0
        ? static_cast<double>(c.qasm_bytes) / (1024.0 * 1024.0) / qasm_s
        : 0.0;
    m["frontend.self_s"] = layerSelf(layers, "frontend");
    m["frontend.gates_out"] = static_cast<double>(c.gates_out);
    double layout_s = layerSelf(layers, "layout");
    m["layout.self_s"] = layout_s;
    m["layout.builds"] = static_cast<double>(c.layout_builds);
    m["layout.ms_per_build"] = c.layout_builds
        ? layout_s * 1e3 / static_cast<double>(c.layout_builds)
        : 0.0;
    m["cache.hit_ratio"] = c.cache.hitRatio();
    m["cache.misses"] = static_cast<double>(c.cache.misses);
    m["cache.evictions"] = static_cast<double>(c.cache.evictions);
    m["cache.fetch_us"] = c.cache_fetches
        ? layerSelf(layers, "cache") * 1e6
            / static_cast<double>(c.cache_fetches)
        : 0.0;
    for (const std::string &family : schedFamilies()) {
        double self = layerSelf(layers, "sched." + family);
        auto cycles = c.family_cycles.find(family);
        m["sched." + family + ".self_s"] = self;
        m["sched." + family + ".ns_per_cycle"] =
            cycles != c.family_cycles.end() && cycles->second > 0
            ? self * 1e9 / cycles->second
            : 0.0;
    }
    m["sched.placement_failures"] = c.placement_failures;
    m["sched.bfs_detours"] = c.bfs_detours;
    m["sched.drops"] = c.drops;
    m["sched.transpose_fallbacks"] = c.transpose_fallbacks;
    m["sched.ff_skip_ratio"] =
        c.ff_cycles > 0 ? c.ff_skipped_cycles / c.ff_cycles : 0.0;
    m["sched.heap_allocs"] = static_cast<double>(c.heap_allocs);
    m["sched.arena_allocs"] = static_cast<double>(c.arena_allocs);
    double rows = static_cast<double>(c.rows);
    m["row.encode_us"] =
        c.rows ? layerSelf(layers, "row.encode") * 1e6 / rows : 0.0;
    m["row.parse_us"] =
        c.rows ? layerSelf(layers, "row.parse") * 1e6 / rows : 0.0;
    m["row.bytes"] =
        c.rows ? static_cast<double>(c.row_bytes) / rows : 0.0;
    // Layers this workload does not drive read 0; the workloads that
    // drive them overwrite these.
    for (const char *name :
         {"fleet.overhead_s", "fleet.imbalance", "fleet.worker_failures",
          "wire.codec_us", "wire.bytes_per_req", "queue.wait_p50_ms",
          "queue.wait_p99_ms", "service.batch_mean",
          "service.batched_frac", "loadgen.late_p99_ms"})
        m.emplace(name, 0.0);
}

// ------------------------------------------------------------ process

namespace {

/** Live child pids, readable from the watchdog's signal handler. */
constexpr size_t kMaxChildren = 64;
std::array<std::atomic<pid_t>, kMaxChildren> g_children{};

void
watchdogFired(int)
{
    for (std::atomic<pid_t> &slot : g_children) {
        pid_t pid = slot.load();
        if (pid > 0)
            ::kill(pid, SIGKILL);
    }
    const char msg[] = "qsurf_bench: watchdog expired, giving up\n";
    ssize_t ignored = ::write(2, msg, sizeof(msg) - 1);
    (void)ignored;
    ::_exit(124);
}

void
trackChild(pid_t pid, bool live)
{
    for (std::atomic<pid_t> &slot : g_children) {
        pid_t expected = live ? 0 : pid;
        if (slot.compare_exchange_strong(expected, live ? pid : 0))
            return;
    }
}

/** VmHWM of /proc/<pid>/status, in MiB. */
double
vmHwmMiB(const std::string &status_path)
{
    std::ifstream in(status_path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

} // namespace

Child::Child(const std::vector<std::string> &argv, int stdout_fd,
             int stderr_fd)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    pid_ = ::fork();
    fatalIf(pid_ < 0, "fork failed: ", std::strerror(errno));
    if (pid_ == 0) {
        if (stdout_fd >= 0)
            ::dup2(stdout_fd, 1);
        if (stderr_fd >= 0)
            ::dup2(stderr_fd, 2);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    trackChild(pid_, true);
}

Child::~Child()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        wait();
    }
}

int
Child::wait()
{
    if (pid_ <= 0)
        return 0;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    trackChild(pid_, false);
    pid_ = -1;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

void
armWatchdog(unsigned seconds)
{
    std::signal(SIGALRM, watchdogFired);
    ::alarm(seconds);
}

double
peakRssMiB(pid_t pid)
{
    return vmHwmMiB(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                            : "/proc/self/status");
}

double
childrenPeakRssMiB()
{
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
probeSetupSeconds(const Options &opts, int launches)
{
    std::vector<double> times;
    for (int k = 0; k < launches; ++k) {
        int fds[2];
        fatalIf(::pipe(fds) != 0, "pipe failed: ", std::strerror(errno));
        auto start = Clock::now();
        Child child({opts.exe_dir + "/qsurf_bench", "--setup-probe"},
                    fds[1]);
        ::close(fds[1]);
        char c = 0;
        ssize_t n;
        while ((n = ::read(fds[0], &c, 1)) < 0 && errno == EINTR) {
        }
        double s = secondsSince(start);
        ::close(fds[0]);
        int code = child.wait();
        fatalIf(n != 1 || c != 'R' || code != 0,
                "setup probe failed (exit ", code, ")");
        times.push_back(s);
    }
    return percentile(times, 0.5);
}

int
runSetupProbe()
{
    // Everything a workload needs before it accepts its first
    // operation: the registry with every built-in backend, and an
    // empty prepare cache.
    const engine::Registry &registry = engine::Registry::global();
    service::PrepareCache cache;
    if (registry.names().empty() || cache.stats().entries != 0)
        return 1;
    ssize_t n = ::write(1, "R", 1);
    return n == 1 ? 0 : 1;
}

} // namespace qsurf::bench
