/**
 * @file
 * qsurf_bench: the repository benchmark.
 *
 *   qsurf_bench                        every workload, each in a fresh
 *                                      child process; writes
 *                                      BENCH_e2e.json
 *   qsurf_bench --trace                ... then each again traced;
 *                                      writes bench_trace.json
 *   qsurf_bench --smoke                every workload scaled down,
 *                                      correctness only
 *   qsurf_bench --repeat=N             N seeds per workload; median,
 *                                      quartiles and spread per metric
 *   qsurf_bench --workload W --seed N --seconds S --trace 0|1
 *                                      one workload in this process;
 *                                      the last stdout line is its
 *                                      JSON result
 *
 * Metric names, units and bounds come from BENCHMARK.json in the
 * working directory.  The exit code is nonzero on any correctness
 * failure.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include <unistd.h>

#include "bench.h"
#include "common/json.h"
#include "common/logging.h"

namespace qsurf::bench {

namespace {

struct MetricSpec
{
    std::string name;
    std::string unit;
    double bound = 0;
};

struct Spec
{
    std::vector<std::string> workloads;
    std::vector<MetricSpec> end_to_end;
    std::vector<MetricSpec> per_layer;
    int run_seconds = 20;
};

Spec
readSpec(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot read '", path,
            "' (run from the repository root)");
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc = parseJson(text.str());
    Spec spec;
    auto field = [&](const JsonValue &obj, const char *key) {
        const JsonValue *v = obj.find(key);
        fatalIf(!v || !v->isString(), path, ": an entry lacks '", key,
                "'");
        return v->str;
    };
    auto metrics = [&](const char *key) {
        std::vector<MetricSpec> out;
        const JsonValue *list = doc.find(key);
        fatalIf(!list || !list->isArray(), path, ": no '", key, "' list");
        for (const JsonValue &m : list->items) {
            MetricSpec s;
            s.name = field(m, "name");
            s.unit = field(m, "unit");
            if (const JsonValue *b = m.find("bound"))
                s.bound = b->num;
            out.push_back(s);
        }
        return out;
    };
    spec.end_to_end = metrics("end_to_end");
    spec.per_layer = metrics("per_layer");
    const JsonValue *workloads = doc.find("workloads");
    fatalIf(!workloads || !workloads->isArray(), path,
            ": no 'workloads' list");
    for (const JsonValue &w : workloads->items)
        spec.workloads.push_back(field(w, "name"));
    if (const JsonValue *s = doc.find("run_seconds"))
        spec.run_seconds = static_cast<int>(s->num);
    return spec;
}

std::string
exeDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    fatalIf(n <= 0, "cannot resolve the qsurf_bench executable");
    std::string path(buf, static_cast<size_t>(n));
    return path.substr(0, path.rfind('/'));
}

std::string
hex(uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** Print @p r for humans, then the JSON result line. */
void
printResult(const Options &opts, const Spec &spec, const Result &r)
{
    const std::vector<MetricSpec> &list =
        opts.trace ? spec.per_layer : spec.end_to_end;
    std::cout << "== " << opts.workload << " (seed " << opts.seed << ", "
              << opts.seconds << " s, "
              << (opts.trace ? "traced" : "untraced")
              << (opts.smoke ? ", smoke" : "") << ")\n";
    for (const MetricSpec &m : list) {
        auto it = r.metrics.find(m.name);
        fatalIf(it == r.metrics.end(), "workload ", opts.workload,
                " did not measure ", m.name);
        std::cout << "  " << std::left << std::setw(30) << m.name
                  << std::right << std::setw(16)
                  << JsonWriter::number(it->second) << " " << m.unit
                  << "\n";
    }
    for (const std::string &n : r.notes)
        std::cout << "  note: " << n << "\n";
    for (const Gate &g : r.gates)
        std::cout << "  gate " << g.name << " = " << g.value
                  << (g.at_least ? " >= " : " <= ") << g.threshold
                  << (g.pass() ? "  pass" : "  FAIL") << "\n";
    for (const std::string &f : r.failures)
        std::cout << "  failure: " << f << "\n";
    std::cout << "  attempted " << r.attempted << ", failed " << r.failed
              << " (failed_frac "
              << (r.attempted ? static_cast<double>(r.failed)
                        / static_cast<double>(r.attempted)
                              : 1.0)
              << ")\n";
    std::cout << "digest: " << hex(r.digest) << "\n";

    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("correct", r.correct());
    j.field("attempted", r.attempted);
    j.field("failed", r.failed);
    j.key("metrics");
    j.beginObject();
    for (const MetricSpec &m : list) {
        j.key(m.name);
        j.beginObject();
        j.field("value", r.metrics.at(m.name));
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::cout << os.str() << std::endl;
}

int
runOne(const Options &opts, const Spec &spec)
{
    // Every run must end well inside the 180 s a run is allowed.
    armWatchdog(175);
    Result r;
    if (opts.workload == "sim-congested")
        r = runSimCongested(opts);
    else if (opts.workload == "sweep-fleet")
        r = runSweepFleet(opts);
    else if (opts.workload == "compile-cold")
        r = runCompileCold(opts);
    else if (opts.workload == "serve-open")
        r = runServeOpen(opts);
    else
        fatal("unknown workload '", opts.workload, "'");
    // Smoke inputs are too small to hold the workloads' shapes.
    if (opts.smoke)
        r.gates.clear();
    printResult(opts, spec, r);
    return r.correct() ? 0 : 1;
}

/** A finished child run of one workload. */
struct ChildRun
{
    int exit_code = 0;
    bool correct = false;
    uint64_t attempted = 0, failed = 0;
    std::string digest;
    std::map<std::string, double> metrics;
};

ChildRun
runChild(const Options &opts, bool echo)
{
    std::vector<std::string> argv = {
        opts.exe_dir + "/qsurf_bench", "--workload", opts.workload,
        "--seed", std::to_string(opts.seed), "--seconds",
        JsonWriter::number(opts.seconds), "--trace",
        opts.trace ? "1" : "0", "--trace-file=" + opts.trace_file};
    if (opts.smoke)
        argv.push_back("--smoke");
    int fds[2];
    fatalIf(::pipe(fds) != 0, "pipe failed");
    ChildRun run;
    std::string out;
    {
        Child child(argv, fds[1]);
        ::close(fds[1]);
        char buf[4096];
        ssize_t n;
        while ((n = ::read(fds[0], buf, sizeof(buf))) != 0) {
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            out.append(buf, static_cast<size_t>(n));
            if (echo)
                std::cout.write(buf, n).flush();
        }
        ::close(fds[0]);
        run.exit_code = child.wait();
    }
    std::istringstream lines(out);
    std::string line, last;
    while (std::getline(lines, line)) {
        if (line.rfind("digest: ", 0) == 0)
            run.digest = line.substr(8);
        if (!line.empty())
            last = line;
    }
    try {
        JsonValue doc = parseJson(last);
        run.correct = doc.find("correct")->boolean;
        run.attempted = static_cast<uint64_t>(doc.find("attempted")->num);
        run.failed = static_cast<uint64_t>(doc.find("failed")->num);
        for (const auto &[name, v] : doc.find("metrics")->members)
            run.metrics[name] = v.find("value")->num;
    } catch (const std::exception &) {
        run.correct = false;
    }
    if (run.exit_code != 0)
        run.correct = false;
    return run;
}

void
writeRunJson(JsonWriter &j, const ChildRun &run, const Spec &spec,
             bool traced)
{
    j.beginObject();
    j.field("correct", run.correct);
    j.field("attempted", run.attempted);
    j.field("failed", run.failed);
    j.field("failed_frac",
            run.attempted ? static_cast<double>(run.failed)
                    / static_cast<double>(run.attempted)
                          : 1.0);
    j.field("digest", run.digest);
    j.key("metrics");
    j.beginObject();
    for (const MetricSpec &m : traced ? spec.per_layer : spec.end_to_end) {
        auto it = run.metrics.find(m.name);
        if (it == run.metrics.end())
            continue;
        j.key(m.name);
        j.beginObject();
        j.field("value", it->second);
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
}

/** Concatenate the per-workload trace parts (each one process's
 *  events) into one trace file. */
void
mergeTraces(const std::vector<std::string> &parts, const std::string &out)
{
    std::ofstream os(out);
    fatalIf(!os, "cannot open '", out, "' for writing");
    os << "{\"traceEvents\":[";
    for (size_t k = 0; k < parts.size(); ++k) {
        std::ifstream in(parts[k]);
        std::stringstream text;
        text << in.rdbuf();
        std::string doc = text.str();
        size_t open = doc.find('['), close = doc.rfind(']');
        fatalIf(open == std::string::npos || close == std::string::npos,
                "'", parts[k], "' is not a trace written by qsurf_bench");
        os << (k ? "," : "") << doc.substr(open + 1, close - open - 1);
        std::remove(parts[k].c_str());
    }
    os << "]}\n";
}

int
runAll(const Options &base, const Spec &spec)
{
    struct Row
    {
        std::string workload;
        ChildRun untraced, traced;
    };
    std::vector<Row> rows;
    std::vector<std::string> trace_parts;
    for (const std::string &w : spec.workloads) {
        Options o = base;
        o.workload = w;
        o.trace = false;
        Row row{w, runChild(o, true), {}};
        if (base.trace) {
            o.trace = true;
            o.trace_file = "bench_trace." + w + ".part";
            row.traced = runChild(o, true);
            trace_parts.push_back(o.trace_file);
        }
        rows.push_back(row);
    }
    if (base.trace)
        mergeTraces(trace_parts, "bench_trace.json");

    bool ok = true;
    std::cout << "\n== summary (seed " << base.seed << ")\n";
    std::cout << std::left << std::setw(22) << "metric";
    for (const Row &row : rows)
        std::cout << std::right << std::setw(16) << row.workload;
    std::cout << "\n";
    auto table = [&](const std::vector<MetricSpec> &list, bool traced) {
        for (const MetricSpec &m : list) {
            std::cout << std::left << std::setw(22) << m.name;
            for (const Row &row : rows) {
                const ChildRun &run = traced ? row.traced : row.untraced;
                auto it = run.metrics.find(m.name);
                std::ostringstream v;
                if (it != run.metrics.end())
                    v << std::setprecision(5) << it->second;
                else
                    v << "-";
                std::cout << std::right << std::setw(16) << v.str();
            }
            std::cout << "  " << m.unit << "\n";
        }
    };
    table(spec.end_to_end, false);
    if (base.trace)
        table(spec.per_layer, true);
    for (const Row &row : rows) {
        bool row_ok = row.untraced.correct
            && (!base.trace || row.traced.correct);
        ok = ok && row_ok;
        std::cout << row.workload << ": failed " << row.untraced.failed
                  << " of " << row.untraced.attempted << ", digest "
                  << row.untraced.digest << (row_ok ? "" : "  INCORRECT")
                  << "\n";
    }

    const char *path = "BENCH_e2e.json";
    std::ofstream os(path);
    fatalIf(!os, "cannot open '", path, "' for writing");
    JsonWriter j(os);
    j.beginObject();
    j.field("benchmark", "qsurf_bench");
    j.field("seed", base.seed);
    j.field("seconds", base.seconds);
    j.field("smoke", base.smoke);
    j.field("validation",
            "unvalidated: the simulated and model outputs have no "
            "external reference results, so no error figure is given");
    j.key("workloads");
    j.beginObject();
    for (const Row &row : rows) {
        j.key(row.workload);
        j.beginObject();
        j.key("end_to_end");
        writeRunJson(j, row.untraced, spec, false);
        if (base.trace) {
            j.key("per_layer");
            writeRunJson(j, row.traced, spec, true);
        }
        j.endObject();
    }
    j.endObject();
    j.endObject();
    os << "\n";
    std::cout << "wrote " << path
              << (base.trace ? " and bench_trace.json" : "") << "\n";
    return ok ? 0 : 1;
}

int
runRepeat(const Options &base, const Spec &spec, int repeats)
{
    std::vector<std::string> workloads = base.workload.empty()
        ? spec.workloads
        : std::vector<std::string>{base.workload};
    bool ok = true;
    for (const std::string &w : workloads) {
        std::map<std::string, std::vector<double>> values;
        for (int k = 0; k < repeats; ++k) {
            Options o = base;
            o.workload = w;
            o.trace = false;
            o.seed = base.seed + static_cast<uint64_t>(k);
            ChildRun run = runChild(o, false);
            ok = ok && run.correct;
            std::cout << w << " seed " << o.seed << ": "
                      << (run.correct ? "correct" : "INCORRECT")
                      << ", failed " << run.failed << " of "
                      << run.attempted << std::endl;
            for (const auto &[name, v] : run.metrics)
                values[name].push_back(v);
        }
        std::cout << "\n== " << w << ": " << repeats
                  << " seeds from " << base.seed << "\n"
                  << std::left << std::setw(22) << "metric" << std::right
                  << std::setw(12) << "median" << std::setw(12) << "q1"
                  << std::setw(12) << "q3" << std::setw(9) << "spread"
                  << std::setw(8) << "bound" << "\n";
        for (const MetricSpec &m : spec.end_to_end) {
            Quartiles q = quartiles(values[m.name]);
            double spread = q.median != 0 ? (q.q3 - q.q1) / q.median : 0;
            const char *verdict = spread <= m.bound / 3 ? "ok"
                : spread <= m.bound                     ? "within"
                                                        : "WIDE";
            std::cout << std::left << std::setw(22) << m.name
                      << std::right << std::setprecision(5)
                      << std::setw(12) << q.median << std::setw(12)
                      << q.q1 << std::setw(12) << q.q3 << std::setw(9)
                      << std::setprecision(3) << spread << std::setw(8)
                      << m.bound << "  " << verdict << "\n";
        }
        std::cout << std::endl;
    }
    return ok ? 0 : 1;
}

int
usage()
{
    std::cerr << "usage: qsurf_bench [--workload NAME] [--seed N] "
                 "[--seconds S] [--trace [0|1]] [--smoke] "
                 "[--repeat=N]\n";
    return 2;
}

} // namespace

} // namespace qsurf::bench

int
main(int argc, char **argv)
{
    using namespace qsurf;
    using namespace qsurf::bench;
    setQuiet(true);
    try {
        Options opts;
        int repeats = 0;
        bool seconds_given = false;
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto value = [&]() -> std::string {
                fatalIf(i + 1 >= argc, a, " needs a value");
                return argv[++i];
            };
            if (a == "--setup-probe")
                return runSetupProbe();
            if (a == "--workload")
                opts.workload = value();
            else if (a == "--seed")
                opts.seed = std::stoull(value());
            else if (a == "--seconds") {
                opts.seconds = std::stod(value());
                seconds_given = true;
            } else if (a == "--trace") {
                // "--trace 0|1" for one workload, bare "--trace" for all.
                if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0
                                     || std::strcmp(argv[i + 1], "1") == 0))
                    opts.trace = value() == "1";
                else
                    opts.trace = true;
            } else if (a == "--smoke")
                opts.smoke = true;
            else if (a.rfind("--repeat=", 0) == 0)
                repeats = std::stoi(a.substr(9));
            else if (a.rfind("--trace-file=", 0) == 0)
                opts.trace_file = a.substr(13);
            else
                return usage();
        }
        Spec spec = readSpec("BENCHMARK.json");
        opts.exe_dir = exeDir();
        if (!seconds_given)
            opts.seconds = opts.smoke ? 1 : spec.run_seconds;
        fatalIf(!(opts.seconds > 0) || opts.seconds > 60,
                "--seconds must be in (0, 60]");
        if (repeats > 0)
            return runRepeat(opts, spec, repeats);
        if (!opts.workload.empty())
            return runOne(opts, spec);
        return runAll(opts, spec);
    } catch (const std::exception &e) {
        std::cerr << "qsurf_bench: " << e.what() << "\n";
        return 2;
    }
}
