#include "engine/backend.h"

#include <functional>
#include <sstream>

#include "common/logging.h"
#include "engine/loop.h"

namespace qsurf::engine {

void
Metrics::set(const std::string &name, double v)
{
    for (auto &[key, val] : extras) {
        if (key == name) {
            val = v;
            return;
        }
    }
    extras.emplace_back(name, v);
}

double
Metrics::extra(const std::string &name, double fallback) const
{
    for (const auto &[key, val] : extras)
        if (key == name)
            return val;
    return fallback;
}

bool
Metrics::has(const std::string &name) const
{
    for (const auto &[key, val] : extras)
        if (key == name)
            return true;
    return false;
}

double
WorkItem::logicalOps() const
{
    if (config.kq > 0)
        return config.kq;
    fatalIf(!circuit, "work item has neither a computation size (kq) "
                      "nor a circuit to derive one from");
    return static_cast<double>(circuit->counts().total);
}

uint64_t
WorkItem::resolveFingerprint() const
{
    if (circuit_fingerprint)
        return circuit_fingerprint;
    return circuit ? circuit::fingerprint(*circuit) : 0;
}

int
WorkItem::resolveDistance() const
{
    if (config.code_distance > 0)
        return config.code_distance;
    return qec::CodeModel::chooseDistance(config.tech.p_physical,
                                          logicalOps());
}

LoopOptions
loopOptions(const RunConfig &c, int code_distance)
{
    LoopOptions opts;
    opts.code_distance = code_distance;
    opts.adapt_timeout = c.adapt_timeout;
    opts.bfs_timeout = c.bfs_timeout;
    opts.drop_timeout = c.drop_timeout;
    opts.magic_production_cycles = c.magic_production_cycles;
    opts.magic_buffer_capacity = c.magic_buffer_capacity;
    opts.max_cycles = c.max_cycles;
    opts.fast_forward = c.fast_forward;
    opts.seed = c.seed;
    opts.defects = c.defectParams();
    opts.trace = c.trace;
    return opts;
}

void
checkLoopConfig(const RunConfig &c)
{
    fatalIf(c.magic_production_cycles > 0
                && c.magic_buffer_capacity < 1,
            "magic_buffer_capacity must be >= 1 while factories "
            "produce (magic_production_cycles = ",
            c.magic_production_cycles, "), got ",
            c.magic_buffer_capacity);
}

void
Backend::prepare(const WorkItem &item) const
{
    item.config.tech.check();
    fatalIf(needsCircuit() && !item.circuit,
            "backend '", name(), "' needs a circuit");
    fatalIf(needsCircuit() && item.circuit && item.circuit->empty(),
            "backend '", name(), "' got an empty circuit");
    fatalIf(item.config.code_distance < 0,
            "code distance must be >= 0 (0 = auto), got ",
            item.config.code_distance);
}

void
writeRunConfig(JsonWriter &j, const RunConfig &c)
{
    fields::write(j, c);
}

double
physicalQubits(qec::CodeKind code, double logical_qubits, int d)
{
    return logical_qubits * qec::spaceOverheadFactor(code)
        * static_cast<double>(qec::tileQubits(code, d));
}

std::string
defectKeySuffix(const fabric::DefectParams &p)
{
    if (!p.enabled())
        return {};
    std::ostringstream os;
    os << "/defd=" << p.density << "/defs=" << std::hex << p.seed
       << std::dec;
    if (!p.spec_json.empty())
        os << "/spec=" << std::hex
           << std::hash<std::string>{}(p.spec_json) << std::dec;
    return os.str();
}

double
logicalErrorProxy(double logical_qubits, uint64_t schedule_cycles,
                  int d, double p_physical, double error_multiplier)
{
    if (d < 1)
        return 0;
    double timesteps = static_cast<double>(schedule_cycles)
        / static_cast<double>(d);
    return logical_qubits * timesteps
        * qec::CodeModel::logicalErrorPerOp(
              p_physical * error_multiplier, d);
}

uint64_t
mixSeed(uint64_t base_seed, uint64_t index)
{
    // splitmix64 finalizer over the combined word: cheap, and
    // adjacent indices land in decorrelated streams.
    uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace qsurf::engine
