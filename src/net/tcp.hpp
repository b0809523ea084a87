// Real loopback sockets for the distributed driver and the match daemon:
// a ShardServer hosting one request handler (every logical node of the
// cluster, or the match service), and a TcpTransport client that speaks
// the frame protocol with per-request deadlines.
//
// The server accepts on 127.0.0.1:<ephemeral>.  Its worker threads share
// one epoll set holding the listening socket and every connection, each
// armed one-shot: the worker that takes a connection's event reads it,
// runs the handler for every complete frame, writes each reply on its own
// thread and re-arms the fd.  A partial frame stays in the connection's
// buffer, so a slow peer never holds a worker.
//
// Connections are kept alive: a TcpTransport reuses its connection after
// a call that ended with one complete, checksum-clean reply and no
// leftover bytes, and closes it on any transport failure, so a faulted
// attempt never leaks into the next call.  A TcpTransport is
// single-caller — give each thread its own.
//
// Fault injection (util::FaultInjector) plugs in at the socket layer:
// when the shared failure decision says (shard, attempt) fails, the kind
// draw picks a real manifestation — the client connects afresh to a dead
// port (real ECONNREFUSED), or the server cuts the reply mid-frame,
// stalls past the client's deadline, or flips a payload byte so the
// checksum rejects the frame.  The driver's retry/backoff loop upstream
// sees only Status values, exactly as it does for in-process faults.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"
#include "util/status.hpp"

namespace fbf::net {

struct ShardServerOptions {
  /// Socket-layer fault injection; default-off config injects nothing.
  fbf::util::FaultConfig faults;
  /// How long a kDeadlineExpiry fault stalls the reply.  Must exceed the
  /// client's deadline_ms for the fault to actually manifest.
  double injected_delay_ms = 750.0;
  /// Server threads: each accepts, reads, handles and replies.
  std::size_t workers = 2;
};

/// What the server observed (for reports and test assertions).
struct ShardServerCounters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_served{0};
  std::atomic<std::uint64_t> corrupt_requests{0};
  std::atomic<std::uint64_t> handler_errors{0};  ///< handler threw
  std::atomic<std::uint64_t> injected_disconnects{0};
  std::atomic<std::uint64_t> injected_delays{0};
  std::atomic<std::uint64_t> injected_garbles{0};
};

class ShardServer {
 public:
  /// Binds 127.0.0.1:0 (ephemeral port) and starts the workers.  The
  /// listening socket is live when the constructor returns — a client may
  /// connect immediately.
  ShardServer(ShardHandler handler, ShardServerOptions options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const ShardServerCounters& counters() const noexcept {
    return counters_;
  }

  /// Stops accepting, lets each worker finish the request in hand, joins
  /// them and closes every socket.  Idempotent.
  void stop();

 private:
  /// One accepted socket.  Armed one-shot, so at most one worker holds
  /// it at a time; `buffer` keeps the bytes of a partial frame.
  struct Connection {
    int fd = -1;
    std::mutex mu;  ///< held by the worker that owns the socket's event
    std::string buffer;
  };

  void worker_loop();
  void accept_ready();
  /// Reads `conn` and answers its complete frames; false when it must
  /// close.
  bool read_ready(Connection& conn);
  /// Answers one decoded frame; false when the connection must close.
  bool serve(int fd, const FrameContext& ctx, std::string_view payload);
  void close_connection(Connection& conn);

  ShardHandler handler_;
  ShardServerOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;  ///< worker-side, mutex-guarded
  std::mutex injector_mu_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd: readable once stop() begins
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;  ///< guards the map, not the connections in it
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  ShardServerCounters counters_;
};

struct TcpTransportOptions {
  std::uint16_t port = 0;      ///< ShardServer::port()
  double deadline_ms = 2000.0;  ///< per-request budget: connect+send+reply
  /// Connect-establishment retries for *real* transient failures (listen
  /// backlog overflow, EINTR).  Injected refusals bypass this so the
  /// driver-level retry accounting matches the in-process transport.
  fbf::util::RetryPolicy connect_retry{/*max_attempts=*/3,
                                       /*backoff_base_ms=*/0.5,
                                       /*backoff_multiplier=*/2.0};
  /// Client-side fault injection (the connect-refused kind); must share
  /// the server's seed so both sides draw identical failure decisions.
  fbf::util::FaultConfig faults;
};

/// Client-side tallies by observed failure mode (the shared per-kind
/// breakdown; see net::TransportStats).
using TcpTransportStats = TransportStats;

/// Not thread-safe: one caller at a time (stats_ and the kept
/// connection are plain members).  Concurrent callers each take their
/// own transport.
class TcpTransport final : public ShardTransport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] fbf::util::Result<std::string> call(
      std::size_t shard, int attempt, FrameType type,
      std::string_view request) override;

  [[nodiscard]] const char* name() const noexcept override { return "tcp"; }
  [[nodiscard]] bool real_time() const noexcept override { return true; }

  /// Round-trips an empty kPing frame (liveness / smoke tests).
  [[nodiscard]] fbf::util::Status ping();

  [[nodiscard]] const TransportStats& stats() const noexcept override {
    return stats_;
  }

 private:
  [[nodiscard]] fbf::util::Result<std::string> call_once(
      const FrameContext& ctx, std::string_view request, bool refuse);

  TcpTransportOptions options_;
  std::optional<fbf::util::FaultInjector> injector_;
  int conn_fd_ = -1;  ///< kept-alive connection to options_.port, or -1
  int dead_fd_ = -1;  ///< bound, never listened: connecting here is refused
  std::uint16_t dead_port_ = 0;
  TransportStats stats_;
};

}  // namespace fbf::net
