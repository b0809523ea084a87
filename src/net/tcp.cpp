#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/wire.hpp"

namespace fbf::net {

namespace u = fbf::util;
namespace w = fbf::util::wire;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

/// Absolute per-request budget; every blocking step polls against it.
struct Deadline {
  double end;
  explicit Deadline(double budget_ms) : end(now_ms() + budget_ms) {}
  [[nodiscard]] double remaining() const { return end - now_ms(); }
  [[nodiscard]] bool expired() const { return remaining() <= 0.0; }
  /// Poll timeout: bounded slices so loops can re-check state.
  [[nodiscard]] int slice() const {
    const double r = remaining();
    if (r <= 0.0) {
      return 0;
    }
    return static_cast<int>(std::min(r, 50.0)) + 1;
  }
};

std::string errno_text(int err) { return std::strerror(err); }

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Non-blocking connect to 127.0.0.1:port, bounded by the deadline.
u::Result<int> connect_loopback(std::uint16_t port, const Deadline& deadline) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return u::Status::io_error("socket(): " + errno_text(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    return fd;
  }
  if (errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return u::Status::unavailable("connect(): " + errno_text(err));
  }
  // Await writability, then read the final verdict from SO_ERROR.
  while (true) {
    if (deadline.expired()) {
      ::close(fd);
      return u::Status::unavailable("connect(): deadline expired");
    }
    pollfd pfd = {fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, deadline.slice());
    if (ready < 0 && errno != EINTR) {
      const int err = errno;
      ::close(fd);
      return u::Status::io_error("poll(): " + errno_text(err));
    }
    if (ready > 0) {
      break;
    }
  }
  int sock_err = 0;
  socklen_t len = sizeof(sock_err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &sock_err, &len) != 0 ||
      sock_err != 0) {
    ::close(fd);
    return u::Status::unavailable("connect(): " +
                                  errno_text(sock_err != 0 ? sock_err : errno));
  }
  return fd;
}

/// Writes all of `bytes` (non-blocking fd), bounded by the deadline.
u::Status send_all(int fd, std::string_view bytes, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return u::Status::unavailable("send(): " + errno_text(errno));
    }
    if (deadline.expired()) {
      return u::Status::unavailable("send(): deadline expired");
    }
    pollfd pfd = {fd, POLLOUT, 0};
    (void)::poll(&pfd, 1, deadline.slice());
  }
  return {};
}

// --- error-frame payload: u8 status code + message ---------------------

std::string encode_error_payload(const u::Status& status) {
  std::string payload;
  w::put<std::uint8_t>(payload, static_cast<std::uint8_t>(status.code()));
  w::put_string(payload, status.message());
  return payload;
}

/// Adds or re-arms (`op`) `fd` in `epoll_fd` for one readable event
/// tagged `tag`; one-shot, so exactly one worker takes it.
bool arm_oneshot(int epoll_fd, int op, int fd, void* tag) {
  epoll_event ev = {};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = tag;
  return ::epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

u::Status decode_error_payload(std::string_view payload) {
  w::Reader r{payload};
  std::uint8_t code = 0;
  std::string message;
  if (!r.get(code) || !r.get_string(message) ||
      code > static_cast<std::uint8_t>(u::StatusCode::kResourceExhausted) ||
      code == 0) {
    return u::Status::data_loss("malformed error frame");
  }
  return {static_cast<u::StatusCode>(code), std::move(message)};
}

}  // namespace

// --- ShardServer -------------------------------------------------------

ShardServer::ShardServer(ShardHandler handler, ShardServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  injector_.emplace(options_.faults);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ShardServer: socket(): " + errno_text(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(0);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("ShardServer: bind/listen: " + errno_text(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // The listening socket is armed one-shot like a connection (a null
  // tag); the stop eventfd is level-triggered, so once written it wakes
  // every worker in epoll_wait.
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event stop_ev = {};
  stop_ev.events = EPOLLIN;
  stop_ev.data.ptr = &stop_fd_;
  if (epoll_fd_ < 0 || stop_fd_ < 0 ||
      !arm_oneshot(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, nullptr) ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, &stop_ev) != 0) {
    const int err = errno;
    for (const int fd : {listen_fd_, epoll_fd_, stop_fd_}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    throw std::runtime_error("ShardServer: epoll setup: " + errno_text(err));
  }
  running_.store(true);
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardServer::~ShardServer() { stop(); }

void ShardServer::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  const std::uint64_t one = 1;
  (void)!::write(stop_fd_, &one, sizeof(one));
  for (std::thread& worker : workers_) {
    worker.join();
  }
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(stop_fd_);
}

void ShardServer::worker_loop() {
  while (running_.load()) {
    epoll_event ev = {};
    const int ready = ::epoll_wait(epoll_fd_, &ev, 1, -1);
    if (ready <= 0 || ev.data.ptr == &stop_fd_) {
      continue;  // EINTR, or stop(): the loop condition decides
    }
    if (ev.data.ptr == nullptr) {
      accept_ready();
      continue;
    }
    Connection& conn = *static_cast<Connection*>(ev.data.ptr);
    bool open = false;
    {
      // One-shot arming already makes this worker the connection's only
      // owner; the lock (held across the re-arm) states that hand-off in
      // a form ThreadSanitizer sees, as it does not model epoll re-arms.
      std::lock_guard<std::mutex> lock(conn.mu);
      open = read_ready(conn) &&
             arm_oneshot(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &conn);
    }
    if (!open) {
      close_connection(conn);
    }
  }
}

void ShardServer::accept_ready() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      break;  // EAGAIN: the backlog is drained
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* tag = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(fd, std::move(conn));
    }
    counters_.connections_accepted.fetch_add(1);
    // Registered last: from here another worker may already own it.
    (void)arm_oneshot(epoll_fd_, EPOLL_CTL_ADD, fd, tag);
  }
  (void)arm_oneshot(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, nullptr);
}

bool ShardServer::read_ready(Connection& conn) {
  // Drain the socket, answering each frame as soon as it is complete, so
  // a peer that writes two frames back to back gets two ordered replies.
  std::size_t offset = 0;
  bool eof = false;
  while (true) {
    const DecodedFrame frame =
        try_decode_frame(std::string_view(conn.buffer).substr(offset));
    if (frame.status == DecodeStatus::kCorrupt) {
      counters_.corrupt_requests.fetch_add(1);
      const std::string reply = encode_frame(
          {FrameType::kError, 0, 1},
          encode_error_payload(u::Status::data_loss(frame.error)));
      (void)send_all(conn.fd, reply, Deadline(100.0));
      return false;
    }
    if (frame.status == DecodeStatus::kFrame) {
      if (!serve(conn.fd, frame.ctx, frame.payload)) {
        return false;
      }
      offset += frame.consumed;
      continue;
    }
    if (eof) {
      return false;  // EOF, possibly mid-frame
    }
    if (offset > 0) {
      conn.buffer.erase(0, offset);
      offset = 0;
    }
    char chunk[16384];
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN &&
                          errno != EWOULDBLOCK)) {
      eof = true;
    } else if (errno != EINTR) {
      break;  // drained: wait for the next event
    }
  }
  if (conn.buffer.empty() && conn.buffer.capacity() > (64u << 10)) {
    std::string().swap(conn.buffer);  // one large frame must not stay resident
  }
  return true;
}

void ShardServer::close_connection(Connection& conn) {
  // Unmap before close: once the fd is closed, accept may reuse its number.
  const int fd = conn.fd;
  std::unique_ptr<Connection> owned;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    const auto it = conns_.find(fd);
    owned = std::move(it->second);
    conns_.erase(it);
  }
  ::close(fd);  // also drops it from the epoll set
}

bool ShardServer::serve(int fd, const FrameContext& ctx,
                        std::string_view payload) {
  const Deadline write_deadline(2000.0);
  if (ctx.type == FrameType::kPing) {
    FrameContext pong = ctx;
    pong.type = FrameType::kPong;
    pong.trace = 0;  // replies carry no extension
    return send_all(fd, encode_frame(pong, {}), write_deadline).ok();
  }
  // Socket-layer fault injection: the *decision* is the shared keyed draw
  // (identical to the in-process transport's), the *manifestation* is a
  // real frame-layer failure.
  bool fail = false;
  u::NetFaultKind kind = u::NetFaultKind::kConnectRefused;
  {
    std::lock_guard<std::mutex> lock(injector_mu_);
    fail = injector_->would_fail(ctx.shard, static_cast<int>(ctx.attempt));
    if (fail) {
      kind = injector_->net_fault_kind(ctx.shard,
                                       static_cast<int>(ctx.attempt));
    }
  }
  if (fail && kind == u::NetFaultKind::kDeadlineExpiry) {
    // Stall past the client's deadline, then answer into the void.  The
    // client has closed its end; the late write fails or is discarded.
    counters_.injected_delays.fetch_add(1);
    sleep_ms(options_.injected_delay_ms);
  }
  bool threw = false;
  const u::Result<std::string> result =
      detail::invoke_handler(handler_, ctx, payload, threw);
  if (threw) {
    counters_.handler_errors.fetch_add(1);
  }
  FrameContext reply_ctx = ctx;
  reply_ctx.trace = 0;  // replies carry no extension; the request id did
  std::string frame;
  if (result.ok()) {
    reply_ctx.type = reply_frame_type(ctx.type);
    frame = encode_frame(reply_ctx, result.value());
    counters_.requests_served.fetch_add(1);
    if (fbf::telemetry::enabled()) {
      fbf::telemetry::Registry::global()
          .counter("net.server.requests")
          .increment();
    }
  } else {
    // Overload is a distinct frame type so clients can tell "retry later"
    // from "this request is broken" without parsing the payload.
    reply_ctx.type =
        result.status().code() == u::StatusCode::kResourceExhausted
            ? FrameType::kOverloaded
            : FrameType::kError;
    frame = encode_frame(reply_ctx, encode_error_payload(result.status()));
  }
  if (fail && kind == u::NetFaultKind::kMidFrameDisconnect) {
    // A real mid-frame cut: ship half the frame, then close.
    counters_.injected_disconnects.fetch_add(1);
    const std::string_view half(frame.data(), frame.size() / 2);
    (void)send_all(fd, half, write_deadline);
    return false;
  }
  if (fail && kind == u::NetFaultKind::kGarbledFrame) {
    // Flip one payload byte; the client's checksum must reject the frame.
    counters_.injected_garbles.fetch_add(1);
    if (frame.size() > kFrameHeaderBytes) {
      const std::size_t span = frame.size() - kFrameHeaderBytes;
      const std::size_t offset =
          kFrameHeaderBytes +
          static_cast<std::size_t>(
              (static_cast<std::uint64_t>(ctx.shard) * 1000003ull +
               ctx.attempt) %
              span);
      frame[offset] = static_cast<char>(
          static_cast<unsigned char>(frame[offset]) ^ 0x40u);
    }
  }
  return send_all(fd, frame, write_deadline).ok();
}

// --- TcpTransport ------------------------------------------------------

TcpTransport::TcpTransport(TcpTransportOptions options)
    : options_(options) {
  injector_.emplace(options_.faults);
  // Reserve a loopback port with no listener: connecting to it produces a
  // genuine ECONNREFUSED, which is how injected refusals manifest.
  dead_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (dead_fd_ >= 0) {
    sockaddr_in addr = loopback_addr(0);
    if (::bind(dead_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      ::getsockname(dead_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
      dead_port_ = ntohs(addr.sin_port);
    }
  }
}

TcpTransport::~TcpTransport() {
  for (const int fd : {conn_fd_, dead_fd_}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
}

u::Result<std::string> TcpTransport::call_once(const FrameContext& ctx,
                                               std::string_view request,
                                               bool refuse) {
  const Deadline deadline(options_.deadline_ms);
  // The call owns the kept connection while it runs and hands it back
  // only after a clean reply, so every failure path below just closes
  // `fd`.  An injected refusal connects afresh to the dead port and
  // leaves the kept connection alone.
  int fd = refuse ? -1 : std::exchange(conn_fd_, -1);
  // Connect, retrying only genuine transient failures (backlog overflow)
  // under the shared RetryPolicy.  Injected refusals target a dead port,
  // so they burn these attempts instantly and still fail — the driver's
  // per-attempt accounting stays transport-independent.
  u::Status last = u::Status::unavailable("connect(): no attempt made");
  for (int attempt = 1;
       fd < 0 && attempt <= options_.connect_retry.bounded_attempts();
       ++attempt) {
    u::Result<int> conn =
        connect_loopback(refuse ? dead_port_ : options_.port, deadline);
    if (conn.ok()) {
      fd = conn.value();
      break;
    }
    last = conn.status();
    if (deadline.expired() ||
        attempt == options_.connect_retry.bounded_attempts()) {
      return last;
    }
    sleep_ms(options_.connect_retry.next_delay_ms(attempt));
  }
  if (fd < 0) {
    return last;
  }
  const std::string frame = encode_frame(ctx, request);
  if (u::Status sent = send_all(fd, frame, deadline); !sent.ok()) {
    ::close(fd);
    return sent;
  }
  std::string buffer;
  char chunk[4096];
  while (true) {
    const DecodedFrame reply = try_decode_frame(buffer);
    if (reply.status == DecodeStatus::kCorrupt) {
      ::close(fd);
      return u::Status::data_loss(std::string("garbled frame: ") +
                                  reply.error);
    }
    if (reply.status == DecodeStatus::kFrame) {
      std::string payload(reply.payload);
      if (!refuse && reply.consumed == buffer.size()) {
        conn_fd_ = fd;  // clean and fully consumed: keep it for the next call
      } else {
        ::close(fd);
      }
      if (reply.ctx.type == FrameType::kError ||
          reply.ctx.type == FrameType::kOverloaded) {
        return decode_error_payload(payload);
      }
      return payload;
    }
    if (deadline.expired()) {
      // The late reply may still arrive: it must die with this socket.
      ::close(fd);
      return u::Status::unavailable("deadline expired awaiting reply");
    }
    pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, deadline.slice());
    if (ready <= 0) {
      continue;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      ::close(fd);
      return u::Status::unavailable(
          buffer.empty() ? "connection closed before reply"
                         : "connection closed mid-frame");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;
    }
    const int err = errno;
    ::close(fd);
    return u::Status::io_error("recv(): " + errno_text(err));
  }
}

u::Result<std::string> TcpTransport::call(std::size_t shard, int attempt,
                                          FrameType type,
                                          std::string_view request) {
  ++stats_.calls;
  if (fbf::telemetry::enabled()) {
    detail::net_telemetry().calls.increment();
  }
  FrameContext ctx;
  ctx.type = type;
  ctx.shard = static_cast<std::uint32_t>(shard);
  ctx.attempt = attempt > 0 ? static_cast<std::uint32_t>(attempt) : 1u;
  if (fbf::telemetry::trace_enabled()) {
    // Same derivation as the in-process transport: the id crosses the
    // wire in the frame extension, so the handler sees an identical
    // FrameContext over both backends.
    ctx.trace = fbf::telemetry::derive_trace_id(
        static_cast<std::uint16_t>(type), request);
  }
  const int attempt_key = static_cast<int>(ctx.attempt);
  // Nobody listens on the dead port: connecting there is a real
  // ECONNREFUSED.
  const bool refuse = injector_->shard_attempt_fails(shard, attempt_key) &&
                      injector_->net_fault_kind(shard, attempt_key) ==
                          u::NetFaultKind::kConnectRefused &&
                      dead_port_ != 0;
  u::Result<std::string> result = call_once(ctx, request, refuse);
  if (result.ok()) {
    ++stats_.ok;
    if (fbf::telemetry::enabled()) {
      detail::net_telemetry().ok.increment();
    }
    detail::record_call_span(ctx.trace, shard, attempt, /*ok=*/true);
    return result;
  }
  const u::Status status = result.status();
  const std::string& message = status.message();
  auto& nt = detail::net_telemetry();
  const bool mirror = fbf::telemetry::enabled();
  if (message.find("Connection refused") != std::string::npos) {
    ++stats_.connect_refused;
    if (mirror) nt.connect_refused.increment();
  } else if (message.find("deadline expired") != std::string::npos) {
    ++stats_.deadline_expired;
    if (mirror) nt.deadline.increment();
  } else if (message.find("closed") != std::string::npos) {
    ++stats_.disconnects;
    if (mirror) nt.disconnects.increment();
  } else if (message.find("garbled") != std::string::npos) {
    ++stats_.garbled;
    if (mirror) nt.garbled.increment();
  } else {
    ++stats_.other_errors;
    if (mirror) nt.other.increment();
  }
  detail::record_call_span(ctx.trace, shard, attempt, /*ok=*/false);
  return result;
}

u::Status TcpTransport::ping() {
  return call(0, 1, FrameType::kPing, {}).status();
}

}  // namespace fbf::net
