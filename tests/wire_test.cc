/**
 * @file
 * Wire-protocol tests: framing round-trips, rejection of every
 * malformed-frame class (truncated, corrupt, oversized, wrong
 * version, wrong type, unaligned), request/response codec
 * round-trips, and a live serveConnection() session over a
 * socketpair matching the in-process CompileService bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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

} // namespace
} // namespace qsurf
