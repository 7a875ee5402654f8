/**
 * @file
 * Wire-protocol tests: framing round-trips, rejection of every
 * malformed-frame class (truncated, corrupt, oversized, wrong
 * version, wrong type, unaligned), request/response codec
 * round-trips, and a live serveConnection() session over a
 * socketpair matching the in-process CompileService bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fields.h"
#include "common/json.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "service/service.h"
#include "service/wire.h"

namespace qsurf {
namespace {

namespace wire = service::wire;

wire::Frame
roundTrip(const std::string &encoded)
{
    wire::Frame out;
    size_t consumed = 0;
    EXPECT_EQ(wire::decodeFrame(encoded.data(), encoded.size(), out,
                                consumed),
              wire::DecodeStatus::Ok);
    EXPECT_EQ(consumed, encoded.size());
    return out;
}

TEST(WireFraming, RoundTripsEveryType)
{
    for (wire::FrameType type :
         {wire::FrameType::Hello, wire::FrameType::Request,
          wire::FrameType::Response, wire::FrameType::Telemetry,
          wire::FrameType::Row, wire::FrameType::ShardAssign,
          wire::FrameType::Done, wire::FrameType::Error,
          wire::FrameType::Shutdown}) {
        wire::Frame in{type, R"({"k":1})"};
        wire::Frame out = roundTrip(wire::encodeFrame(in));
        EXPECT_EQ(out.type, type);
        EXPECT_EQ(out.payload, in.payload);
    }
    // Empty payloads are legal (Telemetry queries, Done).
    wire::Frame empty{wire::FrameType::Done, ""};
    EXPECT_EQ(roundTrip(wire::encodeFrame(empty)).payload, "");
}

TEST(WireFraming, EveryPrefixOfAValidFrameNeedsMore)
{
    std::string encoded = wire::encodeFrame(
        {wire::FrameType::Request, R"({"backend":"planar"})"});
    for (size_t len = 0; len < encoded.size(); ++len) {
        wire::Frame out;
        size_t consumed = 0;
        EXPECT_EQ(wire::decodeFrame(encoded.data(), len, out,
                                    consumed),
                  wire::DecodeStatus::NeedMore)
            << "prefix length " << len;
    }
}

TEST(WireFraming, RejectsUnalignedStream)
{
    std::string garbage = "GET / HTTP/1.1\r\n";
    wire::Frame out;
    size_t consumed = 0;
    EXPECT_EQ(wire::decodeFrame(garbage.data(), garbage.size(), out,
                                consumed),
              wire::DecodeStatus::BadMagic);
    // Even a one-byte wrong prefix is rejected immediately.
    EXPECT_EQ(wire::decodeFrame("X", 1, out, consumed),
              wire::DecodeStatus::BadMagic);
}

TEST(WireFraming, RejectsWrongVersionTypeSizeAndHash)
{
    std::string good = wire::encodeFrame(
        {wire::FrameType::Row, R"({"index":3})"});
    wire::Frame out;
    size_t consumed = 0;

    std::string bad = good;
    bad[4] = static_cast<char>(0xFF); // Version field (LE u16).
    EXPECT_EQ(wire::decodeFrame(bad.data(), bad.size(), out,
                                consumed),
              wire::DecodeStatus::BadVersion);

    bad = good;
    bad[6] = 0x7F; // Type field outside the known range.
    EXPECT_EQ(wire::decodeFrame(bad.data(), bad.size(), out,
                                consumed),
              wire::DecodeStatus::BadType);

    bad = good;
    bad[11] = 0x7F; // Length field's high byte: > kMaxPayload.
    EXPECT_EQ(wire::decodeFrame(bad.data(), bad.size(), out,
                                consumed),
              wire::DecodeStatus::Oversized);

    bad = good;
    bad.back() ^= 0x01; // Flip one payload bit.
    EXPECT_EQ(wire::decodeFrame(bad.data(), bad.size(), out,
                                consumed),
              wire::DecodeStatus::BadHash);
}

TEST(WireFraming, ReadFrameDistinguishesCleanEofFromTruncation)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Clean close at a frame boundary: one frame, then Eof.
    EXPECT_TRUE(
        wire::writeFrame(fds[0], wire::FrameType::Done, "{}").ok());
    ::close(fds[0]);
    wire::Frame out;
    EXPECT_TRUE(wire::readFrame(fds[1], out).ok());
    EXPECT_EQ(out.type, wire::FrameType::Done);
    EXPECT_EQ(wire::readFrame(fds[1], out).status,
              wire::IoStatus::Eof);
    ::close(fds[1]);

    // A peer dying mid-payload is truncation — a value the caller
    // handles, never an exception.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string encoded = wire::encodeFrame(
        {wire::FrameType::Row, R"({"index":0})"});
    ASSERT_EQ(::write(fds[0], encoded.data(), encoded.size() - 3),
              static_cast<ssize_t>(encoded.size() - 3));
    ::close(fds[0]);
    EXPECT_EQ(wire::readFrame(fds[1], out).status,
              wire::IoStatus::Truncated);
    ::close(fds[1]);

    // ... and dying inside the fixed header is the same torn-frame
    // class, not a clean EOF.
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::write(fds[0], encoded.data(), 7), 7);
    ::close(fds[0]);
    EXPECT_EQ(wire::readFrame(fds[1], out).status,
              wire::IoStatus::Truncated);
    ::close(fds[1]);
}

TEST(WireFraming, ReadFrameReportsCorruptHeadersAsValues)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string bad = wire::encodeFrame(
        {wire::FrameType::Row, R"({"index":1})"});
    bad[0] = 'X'; // Break the magic.
    ASSERT_EQ(::write(fds[0], bad.data(), bad.size()),
              static_cast<ssize_t>(bad.size()));
    ::close(fds[0]);
    wire::Frame out;
    wire::IoResult r = wire::readFrame(fds[1], out);
    EXPECT_EQ(r.status, wire::IoStatus::Corrupt);
    EXPECT_EQ(r.decode, wire::DecodeStatus::BadMagic);
    EXPECT_NE(r.describe().find("bad-magic"), std::string::npos);
    ::close(fds[1]);
}

TEST(WireFraming, WriteFrameToClosedPeerReturnsPeerGone)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    // The first write may land in the buffer; keep writing until
    // the kernel reports the peer is gone (no SIGPIPE either way).
    wire::IoResult r;
    for (int i = 0; i < 8 && r.ok(); ++i)
        r = wire::writeFrame(fds[0], wire::FrameType::Row, "{}");
    EXPECT_EQ(r.status, wire::IoStatus::PeerGone);
    ::close(fds[0]);
}

TEST(WireCodec, CompileRequestRoundTripsEveryField)
{
    service::CompileRequest req;
    req.app = apps::AppKind::SHA1;
    req.gen = {32, 7};
    req.decompose.rz_sequence_length = 11;
    req.decompose.rz_t_fraction = 0.25;
    req.decompose.expand_swap = false;
    req.run_peephole = false;
    req.label = "round-trip";
    req.backend = engine::backends::hybrid_mixed;
    req.config.tech.p_physical = 1e-6;
    req.config.tech.t_two_qubit_ns = 41.5;
    req.config.tech.single_qubit_speedup = 3.25;
    req.config.tech.t_measure_ns = 0.1 + 0.2;
    req.config.code_distance = 17;
    req.config.policy = 3;
    req.config.epr_window_steps = 48;
    req.config.epr_bandwidth = 5;
    req.config.num_simd_regions = 6;
    req.config.region_capacity = 96;
    req.config.kq = 1e7;
    req.config.fast_forward = false;
    req.config.magic_production_cycles = 12;
    req.config.magic_buffer_capacity = 7;
    req.config.adapt_timeout = 6;
    req.config.bfs_timeout = 10;
    req.config.drop_timeout = 20;
    req.config.max_cycles = 3'000'000'000ull;
    req.config.hybrid_arbiter = 2;
    req.config.layout_objective = 2;
    req.config.lane_spacing = 3;
    req.config.defect_density = 0.07;
    req.config.defect_seed = (uint64_t{1} << 53) + 1;
    req.config.defect_spec =
        "{\"dead_tiles\": [[1, 2]], \"disabled_links\": "
        "[[0, 0, 1, 0]]}";
    req.config.seed = std::numeric_limits<uint64_t>::max();

    service::CompileRequest back =
        wire::decodeCompileRequest(wire::encodeCompileRequest(req));
    EXPECT_EQ(back.app, req.app);
    EXPECT_EQ(back.gen.problem_size, req.gen.problem_size);
    EXPECT_EQ(back.gen.max_iterations, req.gen.max_iterations);
    EXPECT_EQ(back.decompose.rz_sequence_length,
              req.decompose.rz_sequence_length);
    EXPECT_EQ(back.decompose.rz_t_fraction,
              req.decompose.rz_t_fraction);
    EXPECT_EQ(back.decompose.expand_swap,
              req.decompose.expand_swap);
    EXPECT_EQ(back.run_peephole, req.run_peephole);
    EXPECT_EQ(back.label, req.label);
    EXPECT_EQ(back.backend, req.backend);
    const engine::RunConfig &a = req.config;
    const engine::RunConfig &b = back.config;
    EXPECT_EQ(b.tech.p_physical, a.tech.p_physical);
    EXPECT_EQ(b.tech.t_two_qubit_ns, a.tech.t_two_qubit_ns);
    EXPECT_EQ(b.tech.single_qubit_speedup, a.tech.single_qubit_speedup);
    EXPECT_EQ(b.tech.t_measure_ns, a.tech.t_measure_ns);
    EXPECT_EQ(b.code_distance, a.code_distance);
    EXPECT_EQ(b.policy, a.policy);
    EXPECT_EQ(b.epr_window_steps, a.epr_window_steps);
    EXPECT_EQ(b.epr_bandwidth, a.epr_bandwidth);
    EXPECT_EQ(b.num_simd_regions, a.num_simd_regions);
    EXPECT_EQ(b.region_capacity, a.region_capacity);
    EXPECT_EQ(b.kq, a.kq);
    EXPECT_EQ(b.fast_forward, a.fast_forward);
    EXPECT_EQ(b.magic_production_cycles, a.magic_production_cycles);
    EXPECT_EQ(b.magic_buffer_capacity, a.magic_buffer_capacity);
    EXPECT_EQ(b.adapt_timeout, a.adapt_timeout);
    EXPECT_EQ(b.bfs_timeout, a.bfs_timeout);
    EXPECT_EQ(b.drop_timeout, a.drop_timeout);
    EXPECT_EQ(b.max_cycles, a.max_cycles);
    EXPECT_EQ(b.hybrid_arbiter, a.hybrid_arbiter);
    EXPECT_EQ(b.layout_objective, a.layout_objective);
    EXPECT_EQ(b.lane_spacing, a.lane_spacing);
    EXPECT_EQ(b.defect_density, a.defect_density);
    EXPECT_EQ(b.defect_seed, a.defect_seed);
    EXPECT_EQ(b.defect_spec, a.defect_spec);
    EXPECT_EQ(b.seed, a.seed);
    // Nothing the result depends on was lost on the way.
    EXPECT_EQ(service::resultKey(back), service::resultKey(req));
}

TEST(WireCodec, SeedsAndCountsArriveExactly)
{
    for (uint64_t v : {uint64_t{1} << 53, (uint64_t{1} << 53) + 1,
                       uint64_t{12345678901234567891ull},
                       std::numeric_limits<uint64_t>::max()}) {
        service::CompileRequest req;
        req.config.seed = v;
        req.config.defect_seed = v - 1;
        req.config.max_cycles = v;
        service::CompileRequest back = wire::decodeCompileRequest(
            wire::encodeCompileRequest(req));
        EXPECT_EQ(back.config.seed, v);
        EXPECT_EQ(back.config.defect_seed, v - 1);
        EXPECT_EQ(back.config.max_cycles, v);
    }
}

TEST(WireCodec, IntegersThatDoNotFitAreErrorsNotCasts)
{
    auto decode = [](const std::string &config) {
        return wire::decodeCompileRequest("{\"config\": " + config
                                          + "}");
    };
    EXPECT_EQ(decode("{\"seed\": 18446744073709551615}").config.seed,
              std::numeric_limits<uint64_t>::max());
    for (const char *bad :
         {"{\"seed\": -1}", "{\"seed\": 1.5}",
          "{\"seed\": 18446744073709551616}", "{\"seed\": 1e3}",
          "{\"defect_seed\": -3}", "{\"max_cycles\": 2.5}",
          "{\"code_distance\": 2.5}", "{\"policy\": 3000000000}",
          "{\"lane_spacing\": -2147483649}"})
        EXPECT_THROW(decode(bad), FatalError) << bad;
    EXPECT_EQ(decode("{\"epr_bandwidth\": -2}").config.epr_bandwidth, -2);
}

TEST(WireCodec, CallerCircuitsAreNotRepresentable)
{
    service::CompileRequest req;
    req.circuit = std::make_shared<const circuit::Circuit>(
        apps::generate(apps::AppKind::SQ, {8, 1}));
    EXPECT_THROW(wire::encodeCompileRequest(req), FatalError);
}

TEST(WireCodec, CompileResponseRoundTripsMetricsAndErrors)
{
    service::CompileResponse resp;
    resp.prepare_ms = 1.5;
    resp.run_ms = 20.25;
    resp.batch_size = 3;
    resp.metrics.backend = "surgery-sim";
    resp.metrics.code = qec::CodeKind::Planar;
    resp.metrics.code_distance = 9;
    resp.metrics.schedule_cycles = 123456789;
    resp.metrics.critical_path_cycles = 7777;
    resp.metrics.physical_qubits = 1e5;
    resp.metrics.seconds = 0.125;
    resp.metrics.set("mesh_utilization", 0.5);
    resp.metrics.set("teleports", 42);

    service::CompileResponse back = wire::decodeCompileResponse(
        wire::encodeCompileResponse(resp));
    EXPECT_TRUE(back.ok());
    EXPECT_DOUBLE_EQ(back.prepare_ms, resp.prepare_ms);
    EXPECT_DOUBLE_EQ(back.run_ms, resp.run_ms);
    EXPECT_EQ(back.batch_size, resp.batch_size);
    EXPECT_EQ(back.metrics.backend, resp.metrics.backend);
    EXPECT_EQ(back.metrics.code_distance,
              resp.metrics.code_distance);
    EXPECT_EQ(back.metrics.schedule_cycles,
              resp.metrics.schedule_cycles);
    EXPECT_EQ(back.metrics.critical_path_cycles,
              resp.metrics.critical_path_cycles);
    EXPECT_DOUBLE_EQ(back.metrics.physical_qubits,
                     resp.metrics.physical_qubits);
    EXPECT_DOUBLE_EQ(back.metrics.seconds, resp.metrics.seconds);
    ASSERT_EQ(back.metrics.extras.size(),
              resp.metrics.extras.size());
    EXPECT_DOUBLE_EQ(back.metrics.extra("mesh_utilization"), 0.5);
    EXPECT_DOUBLE_EQ(back.metrics.extra("teleports"), 42);

    service::CompileResponse failed;
    failed.error = "no such backend";
    service::CompileResponse failed_back =
        wire::decodeCompileResponse(
            wire::encodeCompileResponse(failed));
    EXPECT_FALSE(failed_back.ok());
    EXPECT_EQ(failed_back.error, failed.error);
}

TEST(WireServe, SocketpairSessionMatchesInProcessService)
{
    setQuiet(true);
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    service::CompileService::Options opts;
    opts.num_threads = 1;
    service::CompileService server_svc(opts);
    wire::ServeStats stats;
    std::thread server([&] {
        stats = wire::serveConnection(server_svc, fds[0], fds[0]);
        ::close(fds[0]);
    });

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 2};
    req.backend = engine::backends::surgery_sim;
    req.config.code_distance = 5;
    req.config.seed = 3;

    {
        wire::Client client(fds[1], fds[1]);

        service::CompileResponse over_wire = client.compile(req);
        ASSERT_TRUE(over_wire.ok()) << over_wire.error;

        service::CompileService local_svc(opts);
        service::CompileResponse direct = local_svc.compile(req);
        ASSERT_TRUE(direct.ok()) << direct.error;
        EXPECT_EQ(over_wire.metrics.schedule_cycles,
                  direct.metrics.schedule_cycles);
        EXPECT_EQ(over_wire.metrics.critical_path_cycles,
                  direct.metrics.critical_path_cycles);
        EXPECT_DOUBLE_EQ(over_wire.metrics.physical_qubits,
                         direct.metrics.physical_qubits);

        // A bad request gets an error response; the session lives.
        service::CompileRequest bad = req;
        bad.backend = "no-such-backend";
        service::CompileResponse err = client.compile(bad);
        EXPECT_FALSE(err.ok());
        EXPECT_NE(err.error.find("no-such-backend"),
                  std::string::npos);

        std::string telemetry = client.telemetry();
        EXPECT_NE(telemetry.find("\"requests\""),
                  std::string::npos);

        client.shutdown();
    }
    server.join();
    EXPECT_TRUE(stats.shutdown);
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.errors, 0u);
}

TEST(WireServe, MalformedPayloadGetsErrorFrameSessionSurvives)
{
    setQuiet(true);
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    service::CompileService::Options opts;
    opts.num_threads = 1;
    service::CompileService svc(opts);
    wire::ServeStats stats;
    std::thread server([&] {
        stats = wire::serveConnection(svc, fds[0], fds[0]);
        ::close(fds[0]);
    });

    wire::Frame frame;
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Hello);

    // Valid frame, garbage payload: the request is poisoned, the
    // connection is not.
    wire::writeFrame(fds[1], wire::FrameType::Request, "not json");
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Error);

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 1};
    req.config.code_distance = 3;
    wire::writeFrame(fds[1], wire::FrameType::Request,
                     wire::encodeCompileRequest(req));
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Response);
    EXPECT_TRUE(
        wire::decodeCompileResponse(frame.payload).ok());

    wire::writeFrame(fds[1], wire::FrameType::Shutdown, "");
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Done);
    ::close(fds[1]);
    server.join();
    EXPECT_EQ(stats.errors, 1u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_TRUE(stats.shutdown);
}

TEST(WireServe, ClientVanishingMidSessionIsPeerGoneNotFatal)
{
    setQuiet(true);
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    service::CompileService::Options opts;
    opts.num_threads = 1;
    service::CompileService svc(opts);
    wire::ServeStats stats;
    std::thread server([&] {
        // The regression: this must return, not throw, when the
        // client disappears after sending a request.
        stats = wire::serveConnection(svc, fds[0], fds[0]);
        ::close(fds[0]);
    });

    wire::Frame frame;
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Hello);

    service::CompileRequest req;
    req.app = apps::AppKind::SQ;
    req.gen = {8, 1};
    req.config.code_distance = 3;
    wire::writeFrame(fds[1], wire::FrameType::Request,
                     wire::encodeCompileRequest(req));
    // Vanish without reading the response.
    ::close(fds[1]);
    server.join();
    EXPECT_TRUE(stats.peer_gone);
    EXPECT_FALSE(stats.shutdown);
}

TEST(WireServe, CorruptFrameHeaderDropsConnectionAndIsCounted)
{
    setQuiet(true);
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    service::CompileService::Options opts;
    opts.num_threads = 1;
    service::CompileService svc(opts);
    wire::ServeStats stats;
    std::thread server([&] {
        stats = wire::serveConnection(svc, fds[0], fds[0]);
        ::close(fds[0]);
    });

    wire::Frame frame;
    ASSERT_TRUE(wire::readFrame(fds[1], frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Hello);

    // A stream that is not frame-aligned can never recover; the
    // server must drop this connection (and count it), not die.
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::write(fds[1], garbage, sizeof(garbage) - 1), 0);
    server.join();
    EXPECT_EQ(stats.corrupt_frames, 1u);
    EXPECT_FALSE(stats.shutdown);
    ::close(fds[1]);
}

TEST(WireListeners, UnixListenerProbesBeforeUnlinking)
{
    setQuiet(true);
    std::string path =
        ::testing::TempDir() + "/qsurf_wire_probe.sock";
    std::remove(path.c_str());

    {
        // A live listener on the path: binding over it would steal
        // its clients, so a second listener must refuse.
        wire::UnixListener live(path);
        EXPECT_THROW({ wire::UnixListener second(path); },
                     FatalError);
    }

    // A stale socket file (server long dead): safe to unlink and
    // reuse.  The destructor above unlinked; recreate a dead one.
    {
        wire::UnixListener first(path);
    } // Unlinked again on destruction.
    int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(raw, 0);
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(raw, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ::close(raw); // Dead socket file left behind, nobody listening.
    {
        wire::UnixListener reclaimed(path);
        EXPECT_EQ(reclaimed.path(), path);
    }

    // A plain file is never unlinked — it is not ours to destroy.
    {
        std::ofstream f(path);
        f << "precious data";
    }
    EXPECT_THROW({ wire::UnixListener hijack(path); }, FatalError);
    std::remove(path.c_str());
}

TEST(WireListeners, TcpEphemeralPortRoundTrip)
{
    setQuiet(true);
    wire::TcpListener listener("127.0.0.1:0");
    ASSERT_GT(listener.port(), 0);

    std::thread client([&] {
        int fd = wire::connectTcp("127.0.0.1", listener.port());
        ASSERT_GE(fd, 0);
        EXPECT_TRUE(wire::writeFrame(fd, wire::FrameType::Row,
                                     R"({"index":7})")
                        .ok());
        ::close(fd);
    });
    int conn = listener.accept();
    ASSERT_GE(conn, 0);
    wire::Frame frame;
    ASSERT_TRUE(wire::readFrame(conn, frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::Row);
    EXPECT_EQ(frame.payload, R"({"index":7})");
    ::close(conn);
    client.join();
}

TEST(WireListeners, ParseHostPortClassifiesSpecs)
{
    std::string host;
    uint16_t port = 0;
    EXPECT_TRUE(wire::parseHostPort("127.0.0.1:7700", host, port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 7700);
    EXPECT_TRUE(wire::parseHostPort("[::1]:80", host, port));
    EXPECT_EQ(host, "::1");
    EXPECT_EQ(port, 80);
    EXPECT_TRUE(wire::parseHostPort("node3:0", host, port));
    EXPECT_EQ(port, 0);
    // Unix-socket paths and junk are not host:port.
    EXPECT_FALSE(wire::parseHostPort("/tmp/qsurf.sock", host, port));
    EXPECT_FALSE(
        wire::parseHostPort("./dir:with/colon.sock", host, port));
    EXPECT_FALSE(wire::parseHostPort("no-port", host, port));
    EXPECT_FALSE(wire::parseHostPort("host:99999", host, port));
    EXPECT_FALSE(wire::parseHostPort("host:abc", host, port));
}

TEST(WireListeners, ConnectWithRetryBacksOffThenGivesUp)
{
    setQuiet(true);
    // Nobody home: every attempt fails, the retry counter proves
    // the backoff loop actually ran.
    wire::RetryPolicy policy;
    policy.max_attempts = 3;
    policy.base_delay_ms = 1;
    policy.max_delay_ms = 4;
    uint64_t retries = 0;
    EXPECT_EQ(wire::connectWithRetry(
                  ::testing::TempDir() + "/qsurf_absent.sock",
                  policy, &retries),
              -1);
    EXPECT_EQ(retries, 3u);

    // Somebody home: first attempt connects, zero retries.
    std::string path =
        ::testing::TempDir() + "/qsurf_retry_live.sock";
    std::remove(path.c_str());
    wire::UnixListener listener(path);
    retries = 0;
    int fd = wire::connectWithRetry(path, policy, &retries);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(retries, 0u);
    if (fd >= 0)
        ::close(fd);
}

TEST(WireCodec, SweepGridRoundTripsWithEqualFingerprint)
{
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::GSE, {16, 3}, "labelled"}};
    grid.backends = {engine::backends::surgery_sim,
                     engine::backends::planar};
    grid.policies = {2, 6};
    grid.arbiters = {0, 1};
    grid.layout_objectives = {0, 2};
    grid.distances = {3, 5};
    grid.epr_windows = {-1, 32};
    grid.sizes = {0, 1e6};
    grid.defects = {0, 0.04, 0.08};
    grid.base.seed = 77;
    grid.base.code_distance = 7;
    grid.base.tech.p_physical = 1e-5;
    grid.base.defect_seed = 13;
    grid.base.defect_spec = "{\"dead_tiles\": [[0, 1]]}";

    engine::SweepGrid back =
        wire::decodeSweepGrid(wire::encodeSweepGrid(grid));
    // Fingerprint equality is the contract the shard parent checks:
    // the decoded grid expands to the identical experiment.
    EXPECT_EQ(engine::sweepGridFingerprint(back),
              engine::sweepGridFingerprint(grid));
    ASSERT_EQ(back.apps.size(), grid.apps.size());
    EXPECT_EQ(back.apps[1].label, grid.apps[1].label);
    EXPECT_EQ(back.backends, grid.backends);
    EXPECT_EQ(back.distances, grid.distances);
    EXPECT_EQ(back.defects, grid.defects);
    EXPECT_EQ(back.base.defect_seed, grid.base.defect_seed);
    EXPECT_EQ(back.base.defect_spec, grid.base.defect_spec);

    // Caller-built circuits cannot cross the wire.
    engine::SweepGrid with_circuit;
    with_circuit.apps = {engine::AppPoint(
        std::make_shared<const circuit::Circuit>(
            apps::generate(apps::AppKind::SQ, {8, 1})),
        "caller")};
    with_circuit.backends = {engine::backends::surgery_sim};
    EXPECT_THROW(wire::encodeSweepGrid(with_circuit), FatalError);
}


/** The request of CompileRequestRoundTripsEveryField: every field
 *  off its default, both seeds above 2^53. */
service::CompileRequest
everyFieldRequest()
{
    service::CompileRequest req;
    req.app = apps::AppKind::SHA1;
    req.gen = {32, 7};
    req.decompose.rz_sequence_length = 11;
    req.decompose.rz_t_fraction = 0.25;
    req.decompose.expand_swap = false;
    req.run_peephole = false;
    req.label = "round-trip";
    req.backend = engine::backends::hybrid_mixed;
    req.config.tech.p_physical = 1e-6;
    req.config.tech.t_two_qubit_ns = 41.5;
    req.config.tech.single_qubit_speedup = 3.25;
    req.config.tech.t_measure_ns = 0.1 + 0.2;
    req.config.code_distance = 17;
    req.config.policy = 3;
    req.config.epr_window_steps = 48;
    req.config.epr_bandwidth = 5;
    req.config.num_simd_regions = 6;
    req.config.region_capacity = 96;
    req.config.kq = 1e7;
    req.config.fast_forward = false;
    req.config.magic_production_cycles = 12;
    req.config.magic_buffer_capacity = 7;
    req.config.adapt_timeout = 6;
    req.config.bfs_timeout = 10;
    req.config.drop_timeout = 20;
    req.config.max_cycles = 3'000'000'000ull;
    req.config.hybrid_arbiter = 2;
    req.config.layout_objective = 2;
    req.config.lane_spacing = 3;
    req.config.defect_density = 0.07;
    req.config.defect_seed = (uint64_t{1} << 53) + 1;
    req.config.defect_spec =
        "{\"dead_tiles\": [[1, 2]], \"disabled_links\": "
        "[[0, 0, 1, 0]]}";
    req.config.seed = std::numeric_limits<uint64_t>::max();
    return req;
}

// The codec bytes and grid fingerprints as released: a peer or a
// resumed row stream written by an earlier build must still match.
TEST(WireCodec, EncodedBytesArePinned)
{
    EXPECT_EQ(
        wire::encodeCompileRequest(everyFieldRequest()),
        R"({"app": "SHA-1","gen": {"problem_size": 32,"max_iterations": 7},)"
        R"("decompose": {"rz_sequence_length": 11,"rz_t_fraction": 0.25,)"
        R"("expand_swap": false},"run_peephole": false,)"
        R"("label": "round-trip","backend": "hybrid/mixed-sim",)"
        R"("config": {"tech": {"p_physical": 1e-06,"t_two_qubit_ns": 41.5,)"
        R"("single_qubit_speedup": 3.25,)"
        R"("t_measure_ns": 0.30000000000000004},"code_distance": 17,)"
        R"("policy": 3,"epr_window_steps": 48,"epr_bandwidth": 5,)"
        R"("num_simd_regions": 6,"region_capacity": 96,"kq": 1e+07,)"
        R"("fast_forward": false,"magic_production_cycles": 12,)"
        R"("magic_buffer_capacity": 7,"adapt_timeout": 6,)"
        R"("bfs_timeout": 10,"drop_timeout": 20,)"
        R"("max_cycles": 3000000000,"hybrid_arbiter": 2,)"
        R"("layout_objective": 2,"lane_spacing": 3,)"
        R"("defect_density": 0.07,"defect_seed": 9007199254740993,)"
        R"("defect_spec": "{\"dead_tiles\": [[1, 2]], )"
        R"(\"disabled_links\": [[0, 0, 1, 0]]}",)"
        R"("seed": 18446744073709551615}})");

    std::ostringstream os;
    {
        JsonWriter j(os, /*compact=*/true);
        engine::writeRunConfig(j, engine::RunConfig{});
    }
    EXPECT_EQ(
        os.str(),
        R"({"tech": {"p_physical": 1e-05,"t_two_qubit_ns": 1e+02,)"
        R"("single_qubit_speedup": 1e+01,"t_measure_ns": 1e+02},)"
        R"("code_distance": 0,"policy": 6,"epr_window_steps": 32,)"
        R"("epr_bandwidth": 0,"num_simd_regions": 4,)"
        R"("region_capacity": 1024,"kq": 0,"fast_forward": true,)"
        R"("magic_production_cycles": 0,"magic_buffer_capacity": 2,)"
        R"("adapt_timeout": 4,"bfs_timeout": 8,"drop_timeout": 16,)"
        R"("max_cycles": 100000000,"hybrid_arbiter": 0,)"
        R"("layout_objective": 0,"lane_spacing": 4,)"
        R"("defect_density": 0,"defect_seed": 0,"seed": 1})");

    // The grid of SweepGridRoundTripsWithEqualFingerprint.
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::GSE, {16, 3}, "labelled"}};
    grid.backends = {engine::backends::surgery_sim,
                     engine::backends::planar};
    grid.policies = {2, 6};
    grid.arbiters = {0, 1};
    grid.layout_objectives = {0, 2};
    grid.distances = {3, 5};
    grid.epr_windows = {-1, 32};
    grid.sizes = {0, 1e6};
    grid.defects = {0, 0.04, 0.08};
    grid.base.seed = 77;
    grid.base.code_distance = 7;
    grid.base.tech.p_physical = 1e-5;
    grid.base.defect_seed = 13;
    grid.base.defect_spec = "{\"dead_tiles\": [[0, 1]]}";
    EXPECT_EQ(engine::sweepGridFingerprint(grid),
              0xe929cb456d37c07full);

    engine::SweepGrid one;
    one.apps = {{apps::AppKind::SQ}};
    one.backends = {engine::backends::double_defect};
    EXPECT_EQ(engine::sweepGridFingerprint(one), 0x32359a79a10a84e4ull);
}

// ------------------------------------------------- field-list walks
//
// The tests below enumerate fields through the lists themselves, so a
// field added to a list is covered without editing them.

/** Calls @p f(path, field) for every scalar field under the listed
 *  struct @p s. */
template <typename S, typename F>
void
forEachLeaf(S &s, const std::string &prefix, F &&f)
{
    forEachField(s, [&](const char *name, auto &v) {
        if constexpr (fields::Listed<std::remove_reference_t<decltype(v)>>)
            forEachLeaf(v, prefix + name + ".", f);
        else
            f(prefix + name, v);
    });
}

/** (path, exact value) of every scalar field. */
using Leaves = std::vector<std::pair<std::string, std::string>>;

template <typename T>
std::string
exactText(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return v;
    else if constexpr (std::is_same_v<T, double>)
        return std::to_string(std::bit_cast<uint64_t>(v));
    else
        return std::to_string(v);
}

/** Moves @p v off its value: ints and doubles by an offset, seeds and
 *  counts to an odd value past 2^53 (which no double holds), bools
 *  negated, strings extended. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, bool>)
        v = !v;
    else if constexpr (std::is_same_v<T, std::string>)
        v += "x";
    else if constexpr (std::is_same_v<T, uint64_t>)
        v = v * 2 + (uint64_t{1} << 53) + 1;
    else if constexpr (std::is_same_v<T, double>)
        v = v * 2 + 0.5;
    else
        v += 3;
}

/** JSON literals of the wrong kind, or out of range, for a field of
 *  type T. */
template <typename T>
std::vector<std::string>
wrongValues()
{
    if constexpr (std::is_same_v<T, bool>)
        return {"1", "\"true\""};
    else if constexpr (std::is_same_v<T, std::string>)
        return {"1", "true"};
    else if constexpr (std::is_same_v<T, uint64_t>)
        return {"\"1\"", "-1", "1.5"};
    else if constexpr (std::is_same_v<T, double>)
        return {"\"1\"", "true"};
    else
        return {"\"1\"", "1.5", "2147483648"};
}

/** The listed parts of a request, under their wire keys. */
template <typename Request, typename Visit>
void
requestParts(Request &req, Visit &&visit)
{
    visit("gen", req.gen);
    visit("decompose", req.decompose);
    visit("config", req.config);
}

Leaves
leavesOf(const service::CompileRequest &req)
{
    Leaves out;
    requestParts(req, [&](const char *part, const auto &s) {
        forEachLeaf(s, std::string(part) + ".",
                    [&](const std::string &path, const auto &v) {
                        out.emplace_back(path, exactText(v));
                    });
    });
    return out;
}

template <typename S>
Leaves
leavesOf(const S &s)
{
    Leaves out;
    forEachLeaf(s, "", [&](const std::string &path, const auto &v) {
        out.emplace_back(path, exactText(v));
    });
    return out;
}

/** @return {"a": {"b": <value>}} for @p path "a.b". */
std::string
nestedJson(const std::string &path, const std::string &value)
{
    std::string json = value;
    size_t end = path.size();
    while (end != std::string::npos && end > 0) {
        size_t dot = path.rfind('.', end - 1);
        size_t start = dot == std::string::npos ? 0 : dot + 1;
        json = "{\"" + path.substr(start, end - start) + "\": " + json
            + "}";
        end = dot;
    }
    return json;
}

TEST(FieldLists, EveryFieldCrossesTheWireAndKeysTheRun)
{
    service::CompileRequest base;
    base.gen = {8, 2};
    base.backend = engine::backends::double_defect;
    engine::SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, base.gen}};
    grid.backends = {engine::backends::double_defect};

    const Leaves base_leaves = leavesOf(base);
    const std::string base_key = service::resultKey(base);
    const uint64_t base_fp = engine::sweepGridFingerprint(grid);

    for (size_t k = 0; k < base_leaves.size(); ++k) {
        const std::string &path = base_leaves[k].first;
        service::CompileRequest req = base;
        size_t left = k;
        requestParts(req, [&](const char *, auto &s) {
            forEachLeaf(s, "", [&](const std::string &, auto &v) {
                if (left-- == 0)
                    perturb(v);
            });
        });
        const Leaves want = leavesOf(req);
        ASSERT_NE(want[k].second, base_leaves[k].second) << path;

        service::CompileRequest back =
            wire::decodeCompileRequest(wire::encodeCompileRequest(req));
        EXPECT_EQ(leavesOf(back), want) << path;
        EXPECT_NE(service::resultKey(req), base_key) << path;

        // A grid carries the config as its base and the generator
        // knobs on each app; the decompose knobs stay in-process.
        engine::SweepGrid g = grid;
        g.apps[0].gen = req.gen;
        g.base = req.config;
        engine::SweepGrid g_back =
            wire::decodeSweepGrid(wire::encodeSweepGrid(g));
        EXPECT_EQ(leavesOf(g_back.apps[0].gen), leavesOf(g.apps[0].gen))
            << path;
        EXPECT_EQ(leavesOf(g_back.base), leavesOf(g.base)) << path;
        if (path.rfind("decompose.", 0) != 0) {
            EXPECT_NE(engine::sweepGridFingerprint(g), base_fp) << path;
        }
    }

    // Each axis: one more value crosses the wire and moves the
    // fingerprint.
    engine::forEachAxis(grid, [&](const char *name, const auto &axis) {
        engine::SweepGrid g = grid;
        engine::forEachAxis(g, [&](const char *n, auto &a) {
            if (std::string(n) == name)
                a.push_back(a.front() + 1);
        });
        engine::SweepGrid back =
            wire::decodeSweepGrid(wire::encodeSweepGrid(g));
        engine::forEachAxis(back, [&](const char *n, const auto &a) {
            if (std::string(n) == name) {
                ASSERT_EQ(a.size(), axis.size() + 1) << name;
                EXPECT_EQ(a.back(), axis.front() + 1) << name;
            }
        });
        EXPECT_NE(engine::sweepGridFingerprint(g), base_fp) << name;
    });
}

TEST(FieldLists, WrongKindsAndOutOfRangeValuesAreErrors)
{
    std::vector<std::pair<std::string, std::vector<std::string>>> wrong;
    service::CompileRequest req;
    requestParts(req, [&](const char *part, const auto &s) {
        forEachLeaf(s, std::string(part) + ".",
                    [&](const std::string &path, const auto &v) {
                        wrong.emplace_back(
                            path, wrongValues<std::decay_t<decltype(v)>>());
                    });
    });
    for (const auto &[path, values] : wrong) {
        for (const std::string &v : values) {
            EXPECT_THROW(
                wire::decodeCompileRequest(nestedJson(path, v)),
                FatalError)
                << path << " = " << v;
            if (path.rfind("config.", 0) == 0) {
                EXPECT_THROW(
                    wire::decodeSweepGrid(
                        R"({"apps": [], "backends": [], "base": )"
                        + nestedJson(path.substr(7), v) + "}"),
                    FatalError)
                    << path << " = " << v;
            }
        }
    }
    engine::SweepGrid grid;
    engine::forEachAxis(grid, [&](const char *name, const auto &axis) {
        using E = typename std::decay_t<decltype(axis)>::value_type;
        std::vector<std::string> values = {"1"}; // Not an array.
        for (const std::string &v : wrongValues<E>())
            values.push_back("[" + v + "]");
        for (const std::string &v : values)
            EXPECT_THROW(wire::decodeSweepGrid(
                             R"({"apps": [], "backends": [], ")"
                             + std::string(name) + "\": " + v + "}"),
                         FatalError)
                << name << " = " << v;
    });
}

} // namespace
} // namespace qsurf
