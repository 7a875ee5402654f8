/**
 * @file
 * Framed wire protocol of the out-of-process compile service.
 *
 * A frame is a fixed 16-byte header — magic, protocol version, frame
 * type, payload length, and an FNV-1a payload hash — followed by a
 * JSON payload.  The header makes the stream self-describing and
 * self-checking: a reader rejects truncated, corrupt, oversized or
 * wrong-version frames instead of mis-parsing them, which is what
 * lets the shard parent treat a crashed worker's half-written frame
 * as a clean failure.  The same framing carries three conversations:
 *
 *  - compile_server <-> client: Request/Response/Telemetry over a
 *    Unix socket or stdin/stdout pipes (examples/compile_server);
 *  - shard parent <-> worker: ShardAssign down, Row/Done/Error up
 *    over a socketpair (src/service/shard.h);
 *  - both start with a server Hello naming the protocol version.
 *
 * Payloads are JSON (the repo's one interchange format), so every
 * frame is inspectable with a hex dump and a JSON pretty-printer.
 *
 * Peer failure is a *value* here, never a crash: readFrame/writeFrame
 * return an IoResult (clean EOF, peer reset, truncation, corrupt
 * frame, system error) and every caller — serveConnection, Client,
 * the shard parent — decides per connection what a dead or lying
 * peer means.  The transports are interchangeable: Unix sockets,
 * stdio pipes, and TCP (TcpListener / connectTcp, with
 * connectWithRetry's capped exponential backoff for fleets whose
 * workers come up asynchronously on other hosts).
 */

#ifndef QSURF_SERVICE_WIRE_H
#define QSURF_SERVICE_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "engine/sweep.h"
#include "service/service.h"

namespace qsurf::service::wire {

/** Frame header magic, "QSRF" in stream order. */
constexpr uint32_t kMagic = 0x46525351u;

/** Protocol version; bumped on any incompatible change. */
constexpr uint16_t kVersion = 1;

/** Bytes of the fixed frame header. */
constexpr size_t kHeaderSize = 16;

/**
 * Payload size ceiling (64 MiB).  Far above any real frame; its job
 * is making a corrupt length field fail fast instead of driving a
 * multi-gigabyte read.
 */
constexpr size_t kMaxPayload = 64u << 20;

/** Frame types; values are wire format, never reorder. */
enum class FrameType : uint16_t
{
    Hello = 1,       ///< Server greeting: {service, version}.
    Request = 2,     ///< CompileRequest (client -> server).
    Response = 3,    ///< CompileResponse (server -> client).
    Telemetry = 4,   ///< Stats query (empty up, stats JSON down).
    Row = 5,         ///< One sweep row line (shard worker -> parent).
    ShardAssign = 6, ///< A chunk of point indices (parent -> worker).
    Done = 7,        ///< End of one assignment / shutdown ack.
    Error = 8,       ///< Failure description, then stream continues.
    Shutdown = 9,    ///< Client asks the server loop to return.
};

/** @return a human-readable frame-type name (diagnostics). */
const char *frameTypeName(FrameType type);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Hello;
    std::string payload;
};

/** Outcome of decoding bytes from a buffer. */
enum class DecodeStatus
{
    Ok,         ///< A frame was decoded; `consumed` bytes used.
    NeedMore,   ///< Prefix of a valid frame; read more bytes.
    BadMagic,   ///< Stream is not frame-aligned (or not ours).
    BadVersion, ///< Peer speaks an incompatible protocol version.
    BadType,    ///< Type field outside the known range.
    Oversized,  ///< Length field exceeds kMaxPayload.
    BadHash,    ///< Payload bytes do not match the header hash.
};

/** @return a human-readable decode-status name. */
const char *decodeStatusName(DecodeStatus status);

/** FNV-1a over @p len bytes (the payload hash of the header). */
uint32_t payloadHash(const char *data, size_t len);

/** @return @p frame encoded as header + payload bytes. */
std::string encodeFrame(const Frame &frame);

/**
 * Decode one frame from the front of @p data.  On Ok, @p out holds
 * the frame and @p consumed its total encoded size; on NeedMore the
 * buffer is a valid prefix shorter than one frame; any other status
 * means the bytes can never become a valid frame.
 */
DecodeStatus decodeFrame(const char *data, size_t len, Frame &out,
                         size_t &consumed);

/** Outcome class of one blocking frame read or write. */
enum class IoStatus
{
    Ok,        ///< Frame transferred.
    Eof,       ///< Clean EOF at a frame boundary (reads only).
    PeerGone,  ///< Peer vanished: EPIPE / ECONNRESET mid-transfer.
    Truncated, ///< EOF mid-frame — the peer died half-way through.
    Corrupt,   ///< Header or payload failed validation (see decode).
    SysError,  ///< Any other read/write errno.
};

/** One frame-I/O outcome: a status plus its diagnosis detail. */
struct IoResult
{
    IoStatus status = IoStatus::Ok;

    /** The failed validation when status == Corrupt. */
    DecodeStatus decode = DecodeStatus::Ok;

    /** The errno when status == PeerGone / SysError. */
    int sys_errno = 0;

    bool ok() const { return status == IoStatus::Ok; }

    /** @return a one-line diagnosis ("peer reset the connection
     *  (ECONNRESET)", "corrupt frame (bad-magic)", ...). */
    std::string describe() const;
};

/**
 * Read one frame from @p fd (blocking, EINTR-safe).  Never throws
 * for peer behaviour: a vanished, truncating or corrupting peer is
 * an IoResult the caller handles per connection.
 */
IoResult readFrame(int fd, Frame &out);

/**
 * Write @p frame to @p fd (blocking, EINTR-safe, SIGPIPE-proof: a
 * closed peer returns PeerGone instead of killing the process).
 */
IoResult writeFrame(int fd, const Frame &frame);

/** Shorthand: writeFrame with @p type and @p payload. */
IoResult writeFrame(int fd, FrameType type, std::string payload);

/** @return @p req as a JSON payload (Request frames).  Caller-built
 *  circuits are not representable on the wire; fatal()s when set. */
std::string encodeCompileRequest(const CompileRequest &req);

/** Parse a Request payload; fatal()s on malformed input. */
CompileRequest decodeCompileRequest(const std::string &json);

/** @return @p resp as a JSON payload (Response frames). */
std::string encodeCompileResponse(const CompileResponse &resp);

/** Parse a Response payload; fatal()s on malformed input. */
CompileResponse decodeCompileResponse(const std::string &json);

/** Counters of one serveConnection() session. */
struct ServeStats
{
    uint64_t frames = 0;   ///< Frames read (all types).
    uint64_t requests = 0; ///< Compile requests served.
    uint64_t errors = 0;   ///< Error frames sent back.
    bool shutdown = false; ///< Peer sent Shutdown (vs plain EOF).

    /** Corrupt frame *headers* received (bad magic / version / type
     *  / hash); each one dropped the connection. */
    uint64_t corrupt_frames = 0;

    /** The client vanished mid-session (reset, EPIPE on a response,
     *  or EOF inside a frame) — the connection was dropped, the
     *  server lives. */
    bool peer_gone = false;
};

/**
 * Serve one connection: read frames from @p in_fd until EOF or
 * Shutdown, answering Request with Response (in request order),
 * Telemetry with a stats snapshot, and malformed payloads with Error
 * (the connection survives bad requests).  A corrupt *frame* or a
 * vanished peer drops this connection only — it is recorded in the
 * returned stats (and the service's "service.wire.*" telemetry
 * counters), never thrown.  Sends the Hello greeting first.
 * @p in_fd == @p out_fd is the socket case; distinct fds are the
 * stdin/stdout pipe case.
 */
ServeStats serveConnection(CompileService &service, int in_fd,
                           int out_fd);

/**
 * A listening Unix-domain socket.  An existing path is probed with
 * connectUnix() first: a live server answering it fatal()s (binding
 * would silently steal its clients), only a stale socket — connect
 * refused, nobody accepting — is unlinked.  The path is unlinked
 * again on destruction.
 */
class UnixListener
{
  public:
    explicit UnixListener(const std::string &path);
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /** Block until a client connects; @return its fd (caller
     *  closes), or -1 after shutdown().  fatal()s on other accept
     *  failures. */
    int accept();

    /** Unblock a concurrent accept() (it returns -1): the threaded
     *  server's clean-stop hook. */
    void shutdown();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

/** Connect to a serving Unix socket; @return the fd, or -1 when the
 *  server is not (yet) there — callers retry. */
int connectUnix(const std::string &path);

/**
 * A listening TCP socket.  @p host_port is "host:port"; port 0
 * binds an ephemeral port, recovered via port() (how tests and
 * same-host fleets avoid port races).
 */
class TcpListener
{
  public:
    explicit TcpListener(const std::string &host_port);
    ~TcpListener();

    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /** Block until a client connects; @return its fd (caller
     *  closes), or -1 after shutdown(). */
    int accept();

    /** Unblock a concurrent accept() (it returns -1). */
    void shutdown();

    /** @return the bound port (the resolved one when constructed
     *  with port 0). */
    uint16_t port() const { return port_; }

  private:
    int fd_ = -1;
    uint16_t port_ = 0;
};

/**
 * Split @p spec as "host:port" ("127.0.0.1:7700", "[::1]:7700",
 * "node3:0").  @return false when it does not parse as one — such a
 * spec is a Unix-socket path (the convention every --workers /
 * --connect flag follows).
 */
bool parseHostPort(const std::string &spec, std::string &host,
                   uint16_t &port);

/** Connect to a TCP server; @return the fd, or -1 on failure
 *  (unresolvable host, refused, unreachable) — callers retry. */
int connectTcp(const std::string &host, uint16_t port);

/** Backoff schedule of connectWithRetry(). */
struct RetryPolicy
{
    int max_attempts = 8;    ///< Connect attempts before giving up.
    int base_delay_ms = 50;  ///< Delay after the first failure.
    int max_delay_ms = 2000; ///< Exponential growth cap.

    /** Jitter seed (deterministic: the schedule is a pure function
     *  of this and the attempt number). */
    uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/**
 * Connect to @p spec — "host:port" for TCP, otherwise a Unix-socket
 * path — retrying failed attempts under capped exponential backoff
 * with jitter (full jitter over [delay/2, delay]).  @return the
 * connected fd, or -1 when every attempt failed.  @p retries, when
 * non-null, receives the number of failed attempts (fleet telemetry
 * counts them as "service.shard.connect_retries").
 */
int connectWithRetry(const std::string &spec,
                     const RetryPolicy &policy = {},
                     uint64_t *retries = nullptr);

/**
 * @return @p grid as a JSON payload: every axis, app generator
 * knobs and the full base RunConfig — what a remote sweep worker
 * (no inherited memory) needs to reproduce the parent's expansion
 * bit for bit.  Caller-built circuits are not representable on the
 * wire; fatal()s when any app point carries one (such grids shard
 * over forked workers only).
 */
std::string encodeSweepGrid(const engine::SweepGrid &grid);

/** Parse an encodeSweepGrid payload; fatal()s on malformed input. */
engine::SweepGrid decodeSweepGrid(const std::string &json);

/**
 * Client side of a compile-server connection: verifies the Hello,
 * then exchanges frames synchronously.  Works over one socket fd or
 * a pipe pair.
 */
class Client
{
  public:
    /** Adopt @p in_fd / @p out_fd (equal for a socket); reads and
     *  checks the server Hello.  Closes owned fds on destruction. */
    Client(int in_fd, int out_fd, bool owns_fds = true);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Round-trip one compile request.  A connection that dies
     *  mid-exchange returns a CompileResponse whose error describes
     *  the failure — the caller decides whether to reconnect. */
    CompileResponse compile(const CompileRequest &req);

    /** @return the server's telemetry snapshot (JSON text). */
    std::string telemetry();

    /** Ask the server loop to return; waits for its Done ack. */
    void shutdown();

  private:
    int in_fd_;
    int out_fd_;
    bool owns_;
};

} // namespace qsurf::service::wire

#endif // QSURF_SERVICE_WIRE_H
