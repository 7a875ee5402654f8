#include "service/wire.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace qsurf::service::wire {

namespace {

void
putU16(std::string &out, uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint16_t
getU16(const char *p)
{
    const auto *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<uint16_t>(u[0] | (u[1] << 8));
}

uint32_t
getU32(const char *p)
{
    const auto *u = reinterpret_cast<const unsigned char *>(p);
    return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8)
        | (static_cast<uint32_t>(u[2]) << 16)
        | (static_cast<uint32_t>(u[3]) << 24);
}

/** Bytes moved by one readFull/writeFull, plus the stopping errno
 *  (0 means clean: short reads are EOF, not errors). */
struct RawIo
{
    size_t n = 0;
    int err = 0;
};

/** Read exactly @p len bytes; stops early on EOF or a non-EINTR
 *  error.  Peer failure is reported, never thrown. */
RawIo
readFull(int fd, char *buf, size_t len)
{
    RawIo io;
    while (io.n < len) {
        ssize_t n = ::read(fd, buf + io.n, len - io.n);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io.err = errno;
            return io;
        }
        if (n == 0)
            return io;
        io.n += static_cast<size_t>(n);
    }
    return io;
}

/** Write all of @p buf; a closed peer is reported as its errno
 *  (EPIPE / ECONNRESET), never SIGPIPE and never thrown. */
RawIo
writeFull(int fd, const char *buf, size_t len)
{
    RawIo io;
    while (io.n < len) {
        // MSG_NOSIGNAL suppresses SIGPIPE on sockets; plain pipes
        // reject send() with ENOTSOCK and take the write() path
        // (qsurf binaries ignore SIGPIPE where they serve pipes).
        ssize_t n = ::send(fd, buf + io.n, len - io.n, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, buf + io.n, len - io.n);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io.err = errno;
            return io;
        }
        io.n += static_cast<size_t>(n);
    }
    return io;
}

/** @return whether @p err means "the peer vanished". */
bool
peerGoneErrno(int err)
{
    return err == EPIPE || err == ECONNRESET || err == ESHUTDOWN;
}

IoResult
ioOk()
{
    return {};
}

IoResult
ioError(IoStatus status, int err = 0,
        DecodeStatus decode = DecodeStatus::Ok)
{
    IoResult r;
    r.status = status;
    r.sys_errno = err;
    r.decode = decode;
    return r;
}

bool
validType(uint16_t t)
{
    return t >= static_cast<uint16_t>(FrameType::Hello)
        && t <= static_cast<uint16_t>(FrameType::Shutdown);
}

/** Validate a full 16-byte header; on Ok, its fields are out. */
DecodeStatus
checkHeader(const char *header, uint16_t &type,
            uint32_t &payload_len, uint32_t &hash)
{
    if (getU32(header) != kMagic)
        return DecodeStatus::BadMagic;
    if (getU16(header + 4) != kVersion)
        return DecodeStatus::BadVersion;
    type = getU16(header + 6);
    if (!validType(type))
        return DecodeStatus::BadType;
    payload_len = getU32(header + 8);
    if (payload_len > kMaxPayload)
        return DecodeStatus::Oversized;
    hash = getU32(header + 12);
    return DecodeStatus::Ok;
}

apps::AppKind
parseAppKind(const std::string &name)
{
    for (apps::AppKind kind : apps::allApps())
        if (apps::appSpec(kind).name == name)
            return kind;
    fatal("unknown app '", name, "' in wire request");
}

qec::CodeKind
parseCodeKind(const std::string &name)
{
    for (qec::CodeKind kind :
         {qec::CodeKind::Planar, qec::CodeKind::DoubleDefect})
        if (name == qec::codeKindName(kind))
            return kind;
    fatal("unknown code kind '", name, "' in wire response");
}

double
num(const JsonValue &obj, const std::string &key, double fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    fatalIf(!v->isNumber(), "wire field '", key,
            "' is not a number");
    return v->num;
}

int
integer(const JsonValue &obj, const std::string &key, int fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->toInt("wire field", key) : fallback;
}

/** @return unsigned 64-bit field @p key exactly (seeds, cycle
 *  counts; see JsonValue::toUint), or @p fallback when absent. */
uint64_t
count(const JsonValue &obj, const std::string &key, uint64_t fallback)
{
    const JsonValue *v = obj.find(key);
    return v ? v->toUint("wire field", key) : fallback;
}

bool
flag(const JsonValue &obj, const std::string &key, bool fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    fatalIf(!v->isBool(), "wire field '", key, "' is not a bool");
    return v->boolean;
}

std::string
text(const JsonValue &obj, const std::string &key,
     const std::string &fallback = {})
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    fatalIf(!v->isString(), "wire field '", key,
            "' is not a string");
    return v->str;
}

/** Parse an engine::writeRunConfig object into @p c (absent fields
 *  keep their current values). */
void
readRunConfig(const JsonValue &cfg, engine::RunConfig &c)
{
    fatalIf(!cfg.isObject(), "wire 'config' is not an object");
    if (const JsonValue *tech = cfg.find("tech")) {
        fatalIf(!tech->isObject(), "wire 'tech' is not an object");
        c.tech.p_physical =
            num(*tech, "p_physical", c.tech.p_physical);
        c.tech.t_two_qubit_ns =
            num(*tech, "t_two_qubit_ns", c.tech.t_two_qubit_ns);
        c.tech.single_qubit_speedup =
            num(*tech, "single_qubit_speedup",
                c.tech.single_qubit_speedup);
        c.tech.t_measure_ns =
            num(*tech, "t_measure_ns", c.tech.t_measure_ns);
    }
    c.code_distance = integer(cfg, "code_distance", c.code_distance);
    c.policy = integer(cfg, "policy", c.policy);
    c.epr_window_steps =
        integer(cfg, "epr_window_steps", c.epr_window_steps);
    c.epr_bandwidth = integer(cfg, "epr_bandwidth", c.epr_bandwidth);
    c.num_simd_regions =
        integer(cfg, "num_simd_regions", c.num_simd_regions);
    c.region_capacity =
        integer(cfg, "region_capacity", c.region_capacity);
    c.kq = num(cfg, "kq", c.kq);
    c.fast_forward = flag(cfg, "fast_forward", c.fast_forward);
    c.magic_production_cycles = integer(
        cfg, "magic_production_cycles", c.magic_production_cycles);
    c.magic_buffer_capacity = integer(cfg, "magic_buffer_capacity",
                                      c.magic_buffer_capacity);
    c.adapt_timeout = integer(cfg, "adapt_timeout", c.adapt_timeout);
    c.bfs_timeout = integer(cfg, "bfs_timeout", c.bfs_timeout);
    c.drop_timeout = integer(cfg, "drop_timeout", c.drop_timeout);
    c.max_cycles = count(cfg, "max_cycles", c.max_cycles);
    c.hybrid_arbiter =
        integer(cfg, "hybrid_arbiter", c.hybrid_arbiter);
    c.layout_objective =
        integer(cfg, "layout_objective", c.layout_objective);
    c.lane_spacing = integer(cfg, "lane_spacing", c.lane_spacing);
    c.defect_density =
        num(cfg, "defect_density", c.defect_density);
    c.defect_seed = count(cfg, "defect_seed", c.defect_seed);
    c.defect_spec = text(cfg, "defect_spec", c.defect_spec);
    c.seed = count(cfg, "seed", c.seed);
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::Hello:
        return "hello";
      case FrameType::Request:
        return "request";
      case FrameType::Response:
        return "response";
      case FrameType::Telemetry:
        return "telemetry";
      case FrameType::Row:
        return "row";
      case FrameType::ShardAssign:
        return "shard-assign";
      case FrameType::Done:
        return "done";
      case FrameType::Error:
        return "error";
      case FrameType::Shutdown:
        return "shutdown";
    }
    return "unknown";
}

const char *
decodeStatusName(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok:
        return "ok";
      case DecodeStatus::NeedMore:
        return "need-more";
      case DecodeStatus::BadMagic:
        return "bad-magic";
      case DecodeStatus::BadVersion:
        return "bad-version";
      case DecodeStatus::BadType:
        return "bad-type";
      case DecodeStatus::Oversized:
        return "oversized";
      case DecodeStatus::BadHash:
        return "bad-hash";
    }
    return "unknown";
}

uint32_t
payloadHash(const char *data, size_t len)
{
    uint32_t h = 2166136261u;
    for (size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 16777619u;
    }
    return h;
}

std::string
encodeFrame(const Frame &frame)
{
    fatalIf(frame.payload.size() > kMaxPayload,
            "wire frame payload of ", frame.payload.size(),
            " bytes exceeds the ", kMaxPayload, "-byte limit");
    std::string out;
    out.reserve(kHeaderSize + frame.payload.size());
    putU32(out, kMagic);
    putU16(out, kVersion);
    putU16(out, static_cast<uint16_t>(frame.type));
    putU32(out, static_cast<uint32_t>(frame.payload.size()));
    putU32(out,
           payloadHash(frame.payload.data(), frame.payload.size()));
    out += frame.payload;
    return out;
}

DecodeStatus
decodeFrame(const char *data, size_t len, Frame &out,
            size_t &consumed)
{
    consumed = 0;
    // Even a partial buffer can prove it will never be a frame: the
    // magic bytes must match as far as they go.
    for (size_t i = 0; i < len && i < 4; ++i)
        if (static_cast<unsigned char>(data[i])
            != ((kMagic >> (8 * i)) & 0xff))
            return DecodeStatus::BadMagic;
    if (len < kHeaderSize)
        return DecodeStatus::NeedMore;
    uint16_t type = 0;
    uint32_t payload_len = 0;
    uint32_t hash = 0;
    DecodeStatus st = checkHeader(data, type, payload_len, hash);
    if (st != DecodeStatus::Ok)
        return st;
    if (len < kHeaderSize + payload_len)
        return DecodeStatus::NeedMore;
    if (payloadHash(data + kHeaderSize, payload_len) != hash)
        return DecodeStatus::BadHash;
    out.type = static_cast<FrameType>(type);
    out.payload.assign(data + kHeaderSize, payload_len);
    consumed = kHeaderSize + payload_len;
    return DecodeStatus::Ok;
}

std::string
IoResult::describe() const
{
    switch (status) {
      case IoStatus::Ok:
        return "ok";
      case IoStatus::Eof:
        return "peer closed the connection";
      case IoStatus::PeerGone:
        return std::string("peer vanished (")
            + std::strerror(sys_errno ? sys_errno : ECONNRESET)
            + ")";
      case IoStatus::Truncated:
        return "peer closed mid-frame (truncated stream)";
      case IoStatus::Corrupt:
        return std::string("corrupt frame (")
            + decodeStatusName(decode) + ")";
      case IoStatus::SysError:
        return std::string("wire I/O failed (")
            + std::strerror(sys_errno) + ")";
    }
    return "unknown";
}

IoResult
readFrame(int fd, Frame &out)
{
    char header[kHeaderSize];
    RawIo io = readFull(fd, header, kHeaderSize);
    if (io.err)
        return ioError(peerGoneErrno(io.err) ? IoStatus::PeerGone
                                             : IoStatus::SysError,
                       io.err);
    if (io.n == 0)
        return ioError(IoStatus::Eof);
    if (io.n < kHeaderSize)
        return ioError(IoStatus::Truncated);
    uint16_t type = 0;
    uint32_t payload_len = 0;
    uint32_t hash = 0;
    DecodeStatus st = checkHeader(header, type, payload_len, hash);
    if (st != DecodeStatus::Ok)
        return ioError(IoStatus::Corrupt, 0, st);
    out.type = static_cast<FrameType>(type);
    out.payload.resize(payload_len);
    if (payload_len) {
        io = readFull(fd, out.payload.data(), payload_len);
        if (io.err)
            return ioError(peerGoneErrno(io.err)
                               ? IoStatus::PeerGone
                               : IoStatus::SysError,
                           io.err);
        if (io.n < payload_len)
            return ioError(IoStatus::Truncated);
    }
    if (payloadHash(out.payload.data(), out.payload.size()) != hash)
        return ioError(IoStatus::Corrupt, 0, DecodeStatus::BadHash);
    return ioOk();
}

IoResult
writeFrame(int fd, const Frame &frame)
{
    std::string bytes = encodeFrame(frame);
    RawIo io = writeFull(fd, bytes.data(), bytes.size());
    if (io.err)
        return ioError(peerGoneErrno(io.err) ? IoStatus::PeerGone
                                             : IoStatus::SysError,
                       io.err);
    return ioOk();
}

IoResult
writeFrame(int fd, FrameType type, std::string payload)
{
    Frame f;
    f.type = type;
    f.payload = std::move(payload);
    return writeFrame(fd, f);
}

std::string
encodeCompileRequest(const CompileRequest &req)
{
    fatalIf(req.circuit != nullptr,
            "caller-built circuits are not representable in wire "
            "protocol v1; submit in-process instead");
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("app", apps::appSpec(req.app).name);
    j.key("gen");
    j.beginObject();
    j.field("problem_size", req.gen.problem_size);
    j.field("max_iterations", req.gen.max_iterations);
    j.endObject();
    j.key("decompose");
    j.beginObject();
    j.field("rz_sequence_length", req.decompose.rz_sequence_length);
    j.field("rz_t_fraction", req.decompose.rz_t_fraction);
    j.field("expand_swap", req.decompose.expand_swap);
    j.endObject();
    j.field("run_peephole", req.run_peephole);
    j.field("label", req.label);
    j.field("backend", req.backend);
    j.key("config");
    engine::writeRunConfig(j, req.config);
    j.endObject();
    return os.str();
}

CompileRequest
decodeCompileRequest(const std::string &json)
{
    JsonValue doc = parseJson(json);
    fatalIf(!doc.isObject(), "wire request is not a JSON object");
    CompileRequest req;
    req.app = parseAppKind(text(doc, "app", "SQ"));
    if (const JsonValue *gen = doc.find("gen")) {
        fatalIf(!gen->isObject(), "wire 'gen' is not an object");
        req.gen.problem_size =
            integer(*gen, "problem_size", req.gen.problem_size);
        req.gen.max_iterations =
            integer(*gen, "max_iterations", req.gen.max_iterations);
    }
    if (const JsonValue *d = doc.find("decompose")) {
        fatalIf(!d->isObject(), "wire 'decompose' is not an object");
        req.decompose.rz_sequence_length =
            integer(*d, "rz_sequence_length",
                    req.decompose.rz_sequence_length);
        req.decompose.rz_t_fraction =
            num(*d, "rz_t_fraction", req.decompose.rz_t_fraction);
        req.decompose.expand_swap =
            flag(*d, "expand_swap", req.decompose.expand_swap);
    }
    req.run_peephole = flag(doc, "run_peephole", req.run_peephole);
    req.label = text(doc, "label");
    req.backend = text(doc, "backend", req.backend);
    if (const JsonValue *cfg = doc.find("config"))
        readRunConfig(*cfg, req.config);
    return req;
}

std::string
encodeSweepGrid(const engine::SweepGrid &grid)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.key("apps");
    j.beginArray();
    for (const engine::AppPoint &a : grid.apps) {
        fatalIf(a.circuit != nullptr,
                "caller-built circuits are not representable in "
                "wire protocol v1; such grids shard over forked "
                "workers only");
        j.beginObject();
        j.field("app", apps::appSpec(a.kind).name);
        j.field("problem_size", a.gen.problem_size);
        j.field("max_iterations", a.gen.max_iterations);
        j.field("label", a.label);
        j.endObject();
    }
    j.endArray();
    j.key("backends");
    j.beginArray();
    for (const std::string &b : grid.backends)
        j.value(b);
    j.endArray();
    auto int_axis = [&](const char *name,
                        const std::vector<int> &values) {
        j.key(name);
        j.beginArray();
        for (int v : values)
            j.value(v);
        j.endArray();
    };
    int_axis("policies", grid.policies);
    int_axis("arbiters", grid.arbiters);
    int_axis("layout_objectives", grid.layout_objectives);
    int_axis("distances", grid.distances);
    int_axis("epr_windows", grid.epr_windows);
    j.key("sizes");
    j.beginArray();
    for (double v : grid.sizes)
        j.value(v);
    j.endArray();
    j.key("defects");
    j.beginArray();
    for (double v : grid.defects)
        j.value(v);
    j.endArray();
    j.key("base");
    engine::writeRunConfig(j, grid.base);
    j.endObject();
    return os.str();
}

engine::SweepGrid
decodeSweepGrid(const std::string &json)
{
    JsonValue doc = parseJson(json);
    fatalIf(!doc.isObject(), "wire grid is not a JSON object");
    engine::SweepGrid grid;
    const JsonValue *apps_v = doc.find("apps");
    fatalIf(!apps_v || !apps_v->isArray(),
            "wire grid has no 'apps' array");
    grid.apps.clear();
    for (const JsonValue &a : apps_v->items) {
        fatalIf(!a.isObject(), "wire grid app is not an object");
        engine::AppPoint point;
        point.kind = parseAppKind(text(a, "app", "SQ"));
        point.gen.problem_size =
            integer(a, "problem_size", point.gen.problem_size);
        point.gen.max_iterations =
            integer(a, "max_iterations", point.gen.max_iterations);
        point.label = text(a, "label");
        grid.apps.push_back(std::move(point));
    }
    const JsonValue *backends = doc.find("backends");
    fatalIf(!backends || !backends->isArray(),
            "wire grid has no 'backends' array");
    grid.backends.clear();
    for (const JsonValue &b : backends->items) {
        fatalIf(!b.isString(), "wire grid backend is not a string");
        grid.backends.push_back(b.str);
    }
    auto int_axis = [&](const char *name, std::vector<int> &out) {
        const JsonValue *v = doc.find(name);
        if (!v)
            return;
        fatalIf(!v->isArray(), "wire grid '", name,
                "' is not an array");
        out.clear();
        for (const JsonValue &e : v->items)
            out.push_back(e.toInt("wire grid", name));
    };
    int_axis("policies", grid.policies);
    int_axis("arbiters", grid.arbiters);
    int_axis("layout_objectives", grid.layout_objectives);
    int_axis("distances", grid.distances);
    int_axis("epr_windows", grid.epr_windows);
    if (const JsonValue *sizes = doc.find("sizes")) {
        fatalIf(!sizes->isArray(),
                "wire grid 'sizes' is not an array");
        grid.sizes.clear();
        for (const JsonValue &e : sizes->items) {
            fatalIf(!e.isNumber(),
                    "wire grid 'sizes' element is not a number");
            grid.sizes.push_back(e.num);
        }
    }
    if (const JsonValue *defects = doc.find("defects")) {
        fatalIf(!defects->isArray(),
                "wire grid 'defects' is not an array");
        grid.defects.clear();
        for (const JsonValue &e : defects->items) {
            fatalIf(!e.isNumber(),
                    "wire grid 'defects' element is not a number");
            grid.defects.push_back(e.num);
        }
    }
    if (const JsonValue *base = doc.find("base"))
        readRunConfig(*base, grid.base);
    return grid;
}

std::string
encodeCompileResponse(const CompileResponse &resp)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("error", resp.error);
    j.field("prepare_ms", resp.prepare_ms);
    j.field("run_ms", resp.run_ms);
    j.field("batch_size", resp.batch_size);
    const engine::Metrics &m = resp.metrics;
    j.key("metrics");
    j.beginObject();
    j.field("backend", m.backend);
    j.field("code", qec::codeKindName(m.code));
    j.field("code_distance", m.code_distance);
    j.field("schedule_cycles", m.schedule_cycles);
    j.field("critical_path_cycles", m.critical_path_cycles);
    j.field("physical_qubits", m.physical_qubits);
    j.field("seconds", m.seconds);
    j.key("extras");
    j.beginObject();
    for (const auto &[name, v] : m.extras)
        j.field(name, v);
    j.endObject();
    j.endObject();
    j.endObject();
    return os.str();
}

CompileResponse
decodeCompileResponse(const std::string &json)
{
    JsonValue doc = parseJson(json);
    fatalIf(!doc.isObject(), "wire response is not a JSON object");
    CompileResponse resp;
    resp.error = text(doc, "error");
    resp.prepare_ms = num(doc, "prepare_ms", 0);
    resp.run_ms = num(doc, "run_ms", 0);
    resp.batch_size = count(doc, "batch_size", 1);
    if (const JsonValue *m = doc.find("metrics")) {
        fatalIf(!m->isObject(), "wire 'metrics' is not an object");
        resp.metrics.backend = text(*m, "backend");
        resp.metrics.code = parseCodeKind(
            text(*m, "code", qec::codeKindName(resp.metrics.code)));
        resp.metrics.code_distance = integer(*m, "code_distance", 0);
        resp.metrics.schedule_cycles = count(*m, "schedule_cycles", 0);
        resp.metrics.critical_path_cycles =
            count(*m, "critical_path_cycles", 0);
        resp.metrics.physical_qubits =
            num(*m, "physical_qubits", 0);
        resp.metrics.seconds = num(*m, "seconds", 0);
        if (const JsonValue *extras = m->find("extras")) {
            fatalIf(!extras->isObject(),
                    "wire 'extras' is not an object");
            for (const auto &[name, v] : extras->members) {
                fatalIf(!v.isNumber(), "wire extra '", name,
                        "' is not a number");
                resp.metrics.extras.emplace_back(name, v.num);
            }
        }
    }
    return resp;
}

namespace {

std::string
helloPayload()
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("service", "qsurf-compile");
    j.field("version", static_cast<int>(kVersion));
    j.endObject();
    return os.str();
}

std::string
telemetryPayload(const CompileService &service)
{
    ServiceStats s = service.stats();
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("requests", s.requests);
    // Each request is its own batch; the two fields stay for
    // protocol compatibility.
    j.field("batches", s.served);
    j.field("batched_requests", 0);
    j.field("threads", service.threads());
    j.key("cache");
    j.beginObject();
    j.field("hits", s.cache.hits);
    j.field("misses", s.cache.misses);
    j.field("evictions", s.cache.evictions);
    j.field("entries", s.cache.entries);
    j.field("hit_ratio", s.cache.hitRatio());
    j.endObject();
    j.endObject();
    return os.str();
}

std::string
errorPayload(const std::string &message)
{
    std::ostringstream os;
    JsonWriter j(os, /*compact=*/true);
    j.beginObject();
    j.field("error", message);
    j.endObject();
    return os.str();
}

} // namespace

ServeStats
serveConnection(CompileService &service, int in_fd, int out_fd)
{
    ServeStats stats;
    obs::MetricsRegistry &reg = service.metricsRegistry();

    // Per-connection failure policy: a corrupt frame header or a
    // vanished peer ends *this* connection (recorded, not thrown) —
    // exactly like the existing malformed-payload path ends the
    // request, one level up.
    auto drop = [&](const IoResult &r) {
        if (r.status == IoStatus::Corrupt) {
            ++stats.corrupt_frames;
            reg.inc("service.wire.corrupt_frames");
        } else if (r.status != IoStatus::Eof) {
            stats.peer_gone = true;
            reg.inc("service.wire.peer_gone");
        }
    };
    auto send = [&](FrameType type, std::string payload) {
        IoResult w = writeFrame(out_fd, type, std::move(payload));
        if (!w.ok())
            drop(w);
        return w.ok();
    };

    if (!send(FrameType::Hello, helloPayload()))
        return stats;
    Frame frame;
    for (;;) {
        IoResult r = readFrame(in_fd, frame);
        if (!r.ok()) {
            drop(r);
            return stats;
        }
        ++stats.frames;
        switch (frame.type) {
          case FrameType::Request: {
            bool sent;
            try {
                CompileRequest req =
                    decodeCompileRequest(frame.payload);
                CompileResponse resp =
                    service.compile(std::move(req));
                ++stats.requests;
                sent = send(FrameType::Response,
                            encodeCompileResponse(resp));
            } catch (const FatalError &e) {
                // A malformed request poisons that request, not the
                // connection: the client gets the diagnostic.
                ++stats.errors;
                sent = send(FrameType::Error,
                            errorPayload(e.what()));
            }
            if (!sent)
                return stats;
            break;
          }
          case FrameType::Telemetry:
            if (!send(FrameType::Telemetry,
                      telemetryPayload(service)))
                return stats;
            break;
          case FrameType::Shutdown:
            stats.shutdown = true;
            send(FrameType::Done, "");
            return stats;
          default:
            ++stats.errors;
            if (!send(FrameType::Error,
                      errorPayload(std::string("unexpected ")
                                   + frameTypeName(frame.type)
                                   + " frame on a compile "
                                     "connection")))
                return stats;
            break;
        }
    }
}

UnixListener::UnixListener(const std::string &path) : path_(path)
{
    sockaddr_un addr{};
    fatalIf(path.size() >= sizeof(addr.sun_path),
            "socket path '", path, "' exceeds the ",
            sizeof(addr.sun_path) - 1, "-byte sockaddr_un limit");
    // Only a *stale* socket may be unlinked: probe it first.  A live
    // server answering the connect means binding here would silently
    // steal its clients — that is a user error, not a cleanup case.
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
        if (S_ISSOCK(st.st_mode)) {
            int probe = connectUnix(path);
            if (probe >= 0) {
                ::close(probe);
                fatal("socket '", path,
                      "' already has a live server; refusing to "
                      "steal it (pick another path or stop that "
                      "server)");
            }
            ::unlink(path.c_str());
        } else {
            fatal("'", path,
                  "' exists and is not a socket; refusing to "
                  "unlink it");
        }
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatalIf(fd_ < 0, "socket() failed: ", std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr))
        != 0) {
        int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("bind('", path, "') failed: ", std::strerror(err));
    }
    if (::listen(fd_, 8) != 0) {
        int err = errno;
        ::close(fd_);
        ::unlink(path.c_str());
        fd_ = -1;
        fatal("listen('", path, "') failed: ", std::strerror(err));
    }
}

UnixListener::~UnixListener()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (!path_.empty())
        ::unlink(path_.c_str());
}

int
UnixListener::accept()
{
    for (;;) {
        int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0)
            return client;
        if (errno == EINTR)
            continue;
        // shutdown() makes a blocked accept fail (EINVAL on Linux,
        // ECONNABORTED elsewhere): the clean-stop path, not a bug.
        if (errno == EINVAL || errno == ECONNABORTED
            || errno == EBADF)
            return -1;
        fatal("accept('", path_,
              "') failed: ", std::strerror(errno));
    }
}

void
UnixListener::shutdown()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr))
        != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

namespace {

/** getaddrinfo over @p host/@p port; @return the resolved list or
 *  null.  @p passive selects bind-side flags. */
addrinfo *
resolveTcp(const std::string &host, uint16_t port, bool passive)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
    addrinfo *res = nullptr;
    std::string service = std::to_string(port);
    if (::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                      service.c_str(), &hints, &res)
        != 0)
        return nullptr;
    return res;
}

} // namespace

bool
parseHostPort(const std::string &spec, std::string &host,
              uint16_t &port)
{
    // A Unix-socket path contains '/' (or has no ':' at all); a TCP
    // spec is "host:port" or "[v6addr]:port" with a numeric port.
    if (spec.find('/') != std::string::npos)
        return false;
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon + 1 >= spec.size())
        return false;
    std::string h = spec.substr(0, colon);
    if (h.size() >= 2 && h.front() == '[' && h.back() == ']')
        h = h.substr(1, h.size() - 2);
    unsigned long p = 0;
    for (size_t i = colon + 1; i < spec.size(); ++i) {
        if (spec[i] < '0' || spec[i] > '9')
            return false;
        p = p * 10 + static_cast<unsigned long>(spec[i] - '0');
        if (p > 65535)
            return false;
    }
    host = std::move(h);
    port = static_cast<uint16_t>(p);
    return true;
}

int
connectTcp(const std::string &host, uint16_t port)
{
    addrinfo *res = resolveTcp(host, port, /*passive=*/false);
    if (!res)
        return -1;
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd >= 0) {
        // Frames are small and latency-sensitive (a Row per sweep
        // point); Nagle only adds merge latency here.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }
    return fd;
}

int
connectWithRetry(const std::string &spec, const RetryPolicy &policy,
                 uint64_t *retries)
{
    std::string host;
    uint16_t port = 0;
    bool tcp = parseHostPort(spec, host, port);
    uint64_t failed = 0;
    int fd = -1;
    for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
        if (attempt > 0) {
            // Capped exponential backoff with deterministic full
            // jitter over [delay/2, delay]: a respawning fleet never
            // hammers a booting worker in lockstep.
            int64_t delay = policy.base_delay_ms;
            for (int i = 1; i < attempt && delay < policy.max_delay_ms;
                 ++i)
                delay *= 2;
            delay = std::min<int64_t>(delay, policy.max_delay_ms);
            uint64_t z = policy.jitter_seed
                + 0x9e3779b97f4a7c15ull
                    * static_cast<uint64_t>(attempt);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            if (delay > 1)
                delay = delay / 2
                    + static_cast<int64_t>(
                        z % static_cast<uint64_t>(delay / 2 + 1));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
        fd = tcp ? connectTcp(host, port) : connectUnix(spec);
        if (fd >= 0)
            break;
        ++failed;
    }
    if (retries)
        *retries = failed;
    return fd;
}

TcpListener::TcpListener(const std::string &host_port)
{
    std::string host;
    uint16_t port = 0;
    fatalIf(!parseHostPort(host_port, host, port), "'", host_port,
            "' is not a host:port listen spec");
    addrinfo *res = resolveTcp(host, port, /*passive=*/true);
    fatalIf(!res, "cannot resolve '", host_port, "'");
    int err = 0;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd_ = ::socket(ai->ai_family, ai->ai_socktype,
                       ai->ai_protocol);
        if (fd_ < 0) {
            err = errno;
            continue;
        }
        int one = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(fd_, ai->ai_addr, ai->ai_addrlen) == 0
            && ::listen(fd_, 16) == 0) {
            sockaddr_storage bound{};
            socklen_t len = sizeof(bound);
            if (::getsockname(
                    fd_, reinterpret_cast<sockaddr *>(&bound), &len)
                == 0) {
                if (bound.ss_family == AF_INET)
                    port_ = ntohs(reinterpret_cast<sockaddr_in *>(
                                      &bound)
                                      ->sin_port);
                else if (bound.ss_family == AF_INET6)
                    port_ = ntohs(reinterpret_cast<sockaddr_in6 *>(
                                      &bound)
                                      ->sin6_port);
            }
            break;
        }
        err = errno;
        ::close(fd_);
        fd_ = -1;
    }
    ::freeaddrinfo(res);
    fatalIf(fd_ < 0, "cannot listen on '", host_port,
            "': ", std::strerror(err));
}

TcpListener::~TcpListener()
{
    if (fd_ >= 0)
        ::close(fd_);
}

int
TcpListener::accept()
{
    for (;;) {
        int client = ::accept(fd_, nullptr, nullptr);
        if (client >= 0) {
            int one = 1;
            ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return client;
        }
        if (errno == EINTR)
            continue;
        if (errno == EINVAL || errno == ECONNABORTED
            || errno == EBADF)
            return -1;
        fatal("tcp accept failed: ", std::strerror(errno));
    }
}

void
TcpListener::shutdown()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

Client::Client(int in_fd, int out_fd, bool owns_fds)
    : in_fd_(in_fd), out_fd_(out_fd), owns_(owns_fds)
{
    Frame hello;
    IoResult r = readFrame(in_fd_, hello);
    fatalIf(!r.ok(), "compile server handshake failed: ",
            r.describe());
    fatalIf(hello.type != FrameType::Hello,
            "expected a Hello frame, got ",
            frameTypeName(hello.type));
    JsonValue doc = parseJson(hello.payload);
    fatalIf(text(doc, "service") != "qsurf-compile",
            "peer is not a qsurf compile server");
}

Client::~Client()
{
    if (!owns_)
        return;
    ::close(in_fd_);
    if (out_fd_ != in_fd_)
        ::close(out_fd_);
}

CompileResponse
Client::compile(const CompileRequest &req)
{
    // A dead connection is a response the caller can act on
    // (reconnect, fail over), not a process-level failure.
    IoResult w = writeFrame(out_fd_, FrameType::Request,
                            encodeCompileRequest(req));
    if (!w.ok()) {
        CompileResponse resp;
        resp.error = "connection lost sending the request: "
            + w.describe();
        return resp;
    }
    Frame reply;
    IoResult r = readFrame(in_fd_, reply);
    if (!r.ok()) {
        CompileResponse resp;
        resp.error =
            "connection lost awaiting the response: " + r.describe();
        return resp;
    }
    if (reply.type == FrameType::Error) {
        JsonValue doc = parseJson(reply.payload);
        CompileResponse resp;
        resp.error = text(doc, "error", "unknown server error");
        return resp;
    }
    fatalIf(reply.type != FrameType::Response,
            "expected a Response frame, got ",
            frameTypeName(reply.type));
    return decodeCompileResponse(reply.payload);
}

std::string
Client::telemetry()
{
    IoResult w = writeFrame(out_fd_, FrameType::Telemetry, "");
    fatalIf(!w.ok(), "telemetry query failed: ", w.describe());
    Frame reply;
    IoResult r = readFrame(in_fd_, reply);
    fatalIf(!r.ok(), "compile server died mid-telemetry: ",
            r.describe());
    fatalIf(reply.type != FrameType::Telemetry,
            "expected a Telemetry frame, got ",
            frameTypeName(reply.type));
    return reply.payload;
}

void
Client::shutdown()
{
    IoResult w = writeFrame(out_fd_, FrameType::Shutdown, "");
    fatalIf(!w.ok(), "shutdown request failed: ", w.describe());
    Frame reply;
    IoResult r = readFrame(in_fd_, reply);
    fatalIf(!r.ok(),
            "compile server closed without acking Shutdown: ",
            r.describe());
    fatalIf(reply.type != FrameType::Done,
            "expected a Done frame, got ",
            frameTypeName(reply.type));
}

} // namespace qsurf::service::wire
