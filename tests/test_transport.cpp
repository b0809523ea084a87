// Transport-layer tests: the in-process reference transport, the real
// TCP path (epoll workers + kept-alive connections + frame protocol +
// deadlines), each injected fault kind manifesting as a real socket
// failure, hostile raw-socket peers, and the headline property —
// link_elastic produces identical decisions and counters over
// InProcessTransport and TcpTransport for the same fault seed.
#include "net/transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/elastic.hpp"
#include "cluster/service.hpp"
#include "linkage/person_gen.hpp"
#include "net/tcp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

namespace cl = fbf::cluster;
namespace lk = fbf::linkage;
namespace net = fbf::net;
namespace u = fbf::util;

net::ShardHandler echo_handler() {
  return [](const net::FrameContext&, std::string_view payload) {
    return u::Result<std::string>(std::string(payload));
  };
}

/// Echoes every payload except "boom", on which it throws.
net::ShardHandler throw_on_boom_handler() {
  return [](const net::FrameContext&,
            std::string_view payload) -> u::Result<std::string> {
    if (payload == "boom") {
      throw std::runtime_error("handler exploded");
    }
    return std::string(payload);
  };
}

/// A blocking loopback socket driven by hand, to play the peers a
/// TcpTransport never is: half a frame, two frames at once, corruption.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    const timeval timeout = {2, 0};  // a missing reply fails, not hangs
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawPeer() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  bool send(std::string_view bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// The next whole frame the server sent, or nullopt on EOF, timeout or
  /// corruption.
  std::optional<std::pair<net::FrameContext, std::string>> read_frame() {
    while (true) {
      const net::DecodedFrame frame = net::try_decode_frame(buffer_);
      if (frame.status == net::DecodeStatus::kCorrupt) {
        return std::nullopt;
      }
      if (frame.status == net::DecodeStatus::kFrame) {
        std::pair<net::FrameContext, std::string> out{
            frame.ctx, std::string(frame.payload)};
        buffer_.erase(0, frame.consumed);
        return out;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed its end (and sent nothing more).
  bool at_eof() {
    char c = 0;
    return buffer_.empty() && ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buffer_;
};

std::string request_frame(std::string_view payload) {
  return net::encode_frame({net::FrameType::kLinkRequest, 0, 1}, payload);
}

/// The first attempt in 1..128 whose kind draw for shard 0 is `kind`.
int first_attempt_of_kind(const u::FaultConfig& faults, u::NetFaultKind kind) {
  const u::FaultInjector probe(faults);
  for (int a = 1; a <= 128; ++a) {
    if (probe.net_fault_kind(0, a) == kind) {
      return a;
    }
  }
  return -1;
}

// --- in-process transport ----------------------------------------------

TEST(InProcessTransport, RoutesPayloadAndContext) {
  net::FrameContext seen;
  net::InProcessTransport transport(
      [&seen](const net::FrameContext& ctx, std::string_view payload) {
        seen = ctx;
        return u::Result<std::string>(std::string(payload) + "!");
      });
  const auto reply =
      transport.call(3, 2, net::FrameType::kLinkRequest, "ping");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value(), "ping!");
  EXPECT_EQ(seen.shard, 3u);
  EXPECT_EQ(seen.attempt, 2u);
  EXPECT_FALSE(transport.real_time());
}

TEST(InProcessTransport, InjectedFaultFailsTheAttempt) {
  u::FaultConfig faults;
  faults.fail_shard = 1;
  net::InProcessTransport transport(echo_handler(), faults);
  EXPECT_FALSE(transport.call(1, 1, net::FrameType::kLinkRequest, "x").ok());
  EXPECT_TRUE(transport.call(0, 1, net::FrameType::kLinkRequest, "x").ok());
}

TEST(InProcessTransport, HandlerExceptionBecomesAnErrorStatus) {
  net::InProcessTransport transport(throw_on_boom_handler());
  const auto failed =
      transport.call(0, 1, net::FrameType::kLinkRequest, "boom");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), u::StatusCode::kFailedPrecondition);
  EXPECT_NE(failed.status().message().find("handler exploded"),
            std::string::npos);
  const auto next = transport.call(0, 1, net::FrameType::kLinkRequest, "ok");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), "ok");
}

// --- TCP transport ------------------------------------------------------

TEST(TcpTransport, PingPongAndEcho) {
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  EXPECT_TRUE(transport.real_time());
  ASSERT_TRUE(transport.ping().ok());
  const auto reply =
      transport.call(4, 1, net::FrameType::kLinkRequest, "over the wire");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "over the wire");
  EXPECT_GE(server.counters().requests_served.load(), 1u);
}

TEST(TcpTransport, HandlerErrorComesBackAsStatus) {
  net::ShardServer server(
      [](const net::FrameContext&, std::string_view) {
        return u::Result<std::string>(
            u::Status::invalid_argument("bad request shape"));
      });
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  const auto reply = transport.call(0, 1, net::FrameType::kLinkRequest, "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), u::StatusCode::kInvalidArgument);
  EXPECT_NE(reply.status().message().find("bad request shape"),
            std::string::npos);
}

TEST(TcpTransport, HandlerExceptionGetsAnErrorAndServingContinues) {
  // An exception escaping the handler must fail that one request with
  // the in-process transport's status, not take the server down.
  net::ShardServer server(throw_on_boom_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  const auto failed =
      transport.call(0, 1, net::FrameType::kLinkRequest, "boom");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), u::StatusCode::kFailedPrecondition);
  EXPECT_NE(failed.status().message().find("handler exploded"),
            std::string::npos);
  const auto next =
      transport.call(0, 1, net::FrameType::kLinkRequest, "still serving");
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  EXPECT_EQ(next.value(), "still serving");
}

TEST(TcpTransport, ConnectToDeadPortIsRefused) {
  // No server at all: transport pointed at a bound-but-not-listening
  // port must observe a real ECONNREFUSED, quickly.
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  u::FaultConfig faults;
  faults.fail_shard = 0;  // shard 0 fails every attempt
  faults.seed = 902;
  opts.faults = faults;
  net::TcpTransport transport(opts);
  // Find an attempt whose kind draw is kConnectRefused and call it.
  const u::FaultInjector probe(faults);
  int attempt = -1;
  for (int a = 1; a <= 64; ++a) {
    if (probe.net_fault_kind(0, a) == u::NetFaultKind::kConnectRefused) {
      attempt = a;
      break;
    }
  }
  ASSERT_GT(attempt, 0) << "no refused-kind draw in 64 attempts";
  const auto reply =
      transport.call(0, attempt, net::FrameType::kLinkRequest, "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(transport.stats().connect_refused, 1u)
      << reply.status().to_string();
}

// Each server-side fault kind must manifest as its distinct real failure.
TEST(TcpTransport, EachServerFaultKindManifests) {
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  const u::FaultInjector probe(faults);
  int disconnect_attempt = -1;
  int garble_attempt = -1;
  int delay_attempt = -1;
  for (int a = 1; a <= 128; ++a) {
    const auto kind = probe.net_fault_kind(0, a);
    if (kind == u::NetFaultKind::kMidFrameDisconnect &&
        disconnect_attempt < 0) {
      disconnect_attempt = a;
    } else if (kind == u::NetFaultKind::kGarbledFrame && garble_attempt < 0) {
      garble_attempt = a;
    } else if (kind == u::NetFaultKind::kDeadlineExpiry && delay_attempt < 0) {
      delay_attempt = a;
    }
  }
  ASSERT_GT(disconnect_attempt, 0);
  ASSERT_GT(garble_attempt, 0);
  ASSERT_GT(delay_attempt, 0);

  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 400.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 150.0;  // < injected_delay_ms so the stall expires it
  net::TcpTransport transport(opts);

  const auto cut = transport.call(0, disconnect_attempt,
                                  net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(transport.stats().disconnects, 1u) << cut.status().to_string();
  EXPECT_GE(server.counters().injected_disconnects.load(), 1u);

  const auto garbled = transport.call(0, garble_attempt,
                                      net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(transport.stats().garbled, 1u) << garbled.status().to_string();
  EXPECT_GE(server.counters().injected_garbles.load(), 1u);

  const auto late = transport.call(0, delay_attempt,
                                   net::FrameType::kLinkRequest, "payload");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(transport.stats().deadline_expired, 1u)
      << late.status().to_string();
  EXPECT_GE(server.counters().injected_delays.load(), 1u);
}

TEST(TcpTransport, HandlerErrorsAreCounted) {
  net::ShardServer server(throw_on_boom_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  auto& counter =
      fbf::telemetry::Registry::global().counter("net.server.handler_errors");
  const std::uint64_t before = counter.value();
  ASSERT_FALSE(transport.call(0, 1, net::FrameType::kLinkRequest, "boom").ok());
  ASSERT_FALSE(transport.call(0, 1, net::FrameType::kLinkRequest, "boom").ok());
  ASSERT_TRUE(transport.call(0, 1, net::FrameType::kLinkRequest, "x").ok());
  EXPECT_EQ(server.counters().handler_errors.load(), 2u);
  EXPECT_EQ(server.counters().requests_served.load(), 1u);
  if (fbf::telemetry::enabled()) {
    EXPECT_EQ(counter.value() - before, 2u);
  }
}

// --- kept-alive connections ----------------------------------------------

TEST(TcpTransport, FaultFreeCallsShareOneConnection) {
  net::ShardServer server(echo_handler());
  net::TcpTransportOptions opts;
  opts.port = server.port();
  net::TcpTransport transport(opts);
  for (int i = 0; i < 100; ++i) {
    const std::string payload = "call " + std::to_string(i);
    const auto reply =
        transport.call(0, 1, net::FrameType::kLinkRequest, payload);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    ASSERT_EQ(reply.value(), payload);
  }
  EXPECT_EQ(server.counters().connections_accepted.load(), 1u);
  EXPECT_EQ(server.counters().requests_served.load(), 100u);
}

// A faulted attempt drops the kept connection, so no byte of it — a half
// frame, a garbled frame, a reply stalled past the deadline — can be read
// as the next call's reply.
TEST(TcpTransport, NextCallAfterEachServerFaultGetsItsOwnReply) {
  u::FaultConfig faults;
  faults.fail_shard = 0;  // shard 0 fails every attempt; shard 1 never
  faults.seed = 31;
  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 300.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 100.0;  // < injected_delay_ms so the stall expires it
  net::TcpTransport transport(opts);

  int call = 0;
  const auto expect_own_reply = [&](const char* after) {
    const std::string payload = "call " + std::to_string(++call);
    const auto reply =
        transport.call(1, 1, net::FrameType::kLinkRequest, payload);
    ASSERT_TRUE(reply.ok()) << after << ": " << reply.status().to_string();
    EXPECT_EQ(reply.value(), payload) << after;
  };
  expect_own_reply("warm-up");
  for (const u::NetFaultKind kind : {u::NetFaultKind::kMidFrameDisconnect,
                                     u::NetFaultKind::kGarbledFrame,
                                     u::NetFaultKind::kDeadlineExpiry}) {
    const int attempt = first_attempt_of_kind(faults, kind);
    ASSERT_GT(attempt, 0);
    ASSERT_FALSE(
        transport.call(0, attempt, net::FrameType::kLinkRequest, "faulted")
            .ok());
    expect_own_reply("the faulted call");
  }
  EXPECT_EQ(transport.stats().total_failures(), 3u);
  EXPECT_EQ(server.counters().injected_disconnects.load(), 1u);
  EXPECT_EQ(server.counters().injected_garbles.load(), 1u);
  EXPECT_EQ(server.counters().injected_delays.load(), 1u);
  // The stalled reply is written once its delay has passed; it must die
  // with the connection the failed call closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  expect_own_reply("the stalled reply's delay");
  EXPECT_EQ(transport.stats().ok, static_cast<std::uint64_t>(call));
}

// --- hostile peers and shutdown (one worker: nothing may hold it) ---------

net::ShardServerOptions one_worker() {
  net::ShardServerOptions options;
  options.workers = 1;
  return options;
}

TEST(TcpServer, HalfAFrameDoesNotHoldTheWorker) {
  net::ShardServer server(echo_handler(), one_worker());
  RawPeer stalled(server.port());
  ASSERT_TRUE(stalled.connected());
  const std::string frame = request_frame("never finished");
  ASSERT_TRUE(stalled.send(std::string_view(frame).substr(0, frame.size() / 2)));
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.deadline_ms = 1000.0;
  net::TcpTransport transport(opts);
  const auto reply = transport.call(0, 1, net::FrameType::kLinkRequest, "x");
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply.value(), "x");
  // The stalled peer's bytes were kept: finishing its frame answers it.
  ASSERT_TRUE(stalled.send(std::string_view(frame).substr(frame.size() / 2)));
  const auto late = stalled.read_frame();
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->second, "never finished");
}

TEST(TcpServer, BackToBackFramesGetOrderedReplies) {
  net::ShardServer server(echo_handler(), one_worker());
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.connected());
  ASSERT_TRUE(peer.send(request_frame("first") + request_frame("second")));
  for (const char* expected : {"first", "second"}) {
    const auto reply = peer.read_frame();
    ASSERT_TRUE(reply.has_value()) << expected;
    EXPECT_EQ(reply->first.type, net::FrameType::kLinkReply);
    EXPECT_EQ(reply->second, expected);
  }
  EXPECT_EQ(server.counters().requests_served.load(), 2u);
}

TEST(TcpServer, CorruptFrameOnAKeptConnectionGetsAnErrorThenAClose) {
  net::ShardServer server(echo_handler(), one_worker());
  RawPeer peer(server.port());
  ASSERT_TRUE(peer.connected());
  ASSERT_TRUE(peer.send(request_frame("fine")));
  const auto ok = peer.read_frame();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->second, "fine");
  std::string corrupt = request_frame("flipped");
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  ASSERT_TRUE(peer.send(corrupt));
  const auto error = peer.read_frame();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->first.type, net::FrameType::kError);
  EXPECT_TRUE(peer.at_eof());
  EXPECT_EQ(server.counters().corrupt_requests.load(), 1u);
}

TEST(TcpServer, StopFailsTheNextCallPromptlyAndJoinsEveryWorker) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    net::ShardServerOptions server_opts;
    server_opts.workers = workers;
    net::ShardServer server(echo_handler(), server_opts);
    net::TcpTransportOptions opts;
    opts.port = server.port();
    net::TcpTransport transport(opts);
    ASSERT_TRUE(transport.call(0, 1, net::FrameType::kLinkRequest, "x").ok());
    // stop() returns only once every worker left epoll_wait and joined.
    server.stop();
    const auto start = std::chrono::steady_clock::now();
    const auto reply = transport.call(0, 1, net::FrameType::kLinkRequest, "x");
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_FALSE(reply.ok()) << workers << " workers";
    EXPECT_LT(ms, 500.0) << workers << " workers";
    EXPECT_EQ(transport.stats().calls, 2u);
    EXPECT_EQ(transport.stats().total_failures(), 1u)
        << reply.status().to_string();
    server.stop();  // idempotent
  }
}

// --- per-kind delivery stats --------------------------------------------

TEST(TransportStats, InProcessTalliesEachInjectedKind) {
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  net::InProcessTransport transport(echo_handler(), faults);
  // Drive enough attempts that the kind draw covers all four; the stats
  // must agree with an independent replay of the same pure draws.
  const u::FaultInjector probe(faults);
  net::TransportStats expected;
  const int kAttempts = 64;
  for (int a = 1; a <= kAttempts; ++a) {
    ASSERT_FALSE(transport.call(0, a, net::FrameType::kLinkRequest, "x").ok());
    ++expected.by_kind(probe.net_fault_kind(0, a));
  }
  EXPECT_EQ(transport.stats().calls, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(transport.stats().ok, 0u);
  EXPECT_EQ(transport.stats().connect_refused, expected.connect_refused);
  EXPECT_EQ(transport.stats().disconnects, expected.disconnects);
  EXPECT_EQ(transport.stats().deadline_expired, expected.deadline_expired);
  EXPECT_EQ(transport.stats().garbled, expected.garbled);
  EXPECT_GT(expected.connect_refused, 0u);
  EXPECT_GT(expected.disconnects, 0u);
  EXPECT_GT(expected.deadline_expired, 0u);
  EXPECT_GT(expected.garbled, 0u);
  EXPECT_EQ(transport.stats().total_failures(),
            static_cast<std::uint64_t>(kAttempts));
  // Successful calls land in ok, not in any failure bucket.
  ASSERT_TRUE(transport.call(1, 1, net::FrameType::kLinkRequest, "x").ok());
  EXPECT_EQ(transport.stats().ok, 1u);
}

TEST(TransportStats, ByKindAndFailuresAgree) {
  net::TransportStats stats;
  ++stats.by_kind(u::NetFaultKind::kGarbledFrame);
  ++stats.by_kind(u::NetFaultKind::kGarbledFrame);
  ++stats.by_kind(u::NetFaultKind::kDeadlineExpiry);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kGarbledFrame), 2u);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kDeadlineExpiry), 1u);
  EXPECT_EQ(stats.failures(u::NetFaultKind::kConnectRefused), 0u);
  EXPECT_EQ(stats.total_failures(), 3u);
}

TEST(TransportStats, TcpClassifiesObservedFailuresLikeTheDraw) {
  // The TCP client does not see the injector's kind draw — it sees a
  // refused connect, a cut socket, a stall, a bad checksum — yet its
  // per-kind stats must match the draws, because each kind manifests
  // as its distinct real failure.
  u::FaultConfig faults;
  faults.fail_shard = 0;
  faults.seed = 31;
  net::ShardServerOptions server_opts;
  server_opts.faults = faults;
  server_opts.injected_delay_ms = 400.0;
  net::ShardServer server(echo_handler(), server_opts);
  net::TcpTransportOptions opts;
  opts.port = server.port();
  opts.faults = faults;
  opts.deadline_ms = 150.0;
  net::TcpTransport transport(opts);

  const u::FaultInjector probe(faults);
  net::TransportStats expected;
  const int kAttempts = 12;
  for (int a = 1; a <= kAttempts; ++a) {
    ASSERT_FALSE(transport.call(0, a, net::FrameType::kLinkRequest, "x").ok());
    ++expected.by_kind(probe.net_fault_kind(0, a));
  }
  EXPECT_EQ(transport.stats().connect_refused, expected.connect_refused);
  EXPECT_EQ(transport.stats().disconnects, expected.disconnects);
  EXPECT_EQ(transport.stats().deadline_expired, expected.deadline_expired);
  EXPECT_EQ(transport.stats().garbled, expected.garbled);
  EXPECT_EQ(transport.stats().other_errors, 0u);
  EXPECT_EQ(transport.stats().total_failures(),
            static_cast<std::uint64_t>(kAttempts));
}

// --- the headline property: transport equivalence -----------------------

struct EquivalenceCase {
  const char* name;
  u::FaultConfig faults;
  bool with_fault_policy;
  cl::AffinityKey affinity = cl::AffinityKey::kRecordId;
};

// One elastic run per transport with R=1, so every injected failure that
// exhausts its retries drops a partition instead of failing over.  The
// fault decisions are keyed by (node, folded attempt), which rides the
// frame, so the socket run must draw the identical failure schedule.
// Returns the in-process run for case-specific assertions.
cl::ElasticResult expect_transport_equivalence(const EquivalenceCase& c) {
  u::Rng rng(77);
  const auto left = lk::generate_people(60, rng);
  const auto right = lk::make_error_records(left, {}, rng);

  cl::ElasticConfig config;
  config.nodes = {0, 1, 2, 3};
  config.replication = 1;
  config.ring.seed = 7;
  config.ring.vnodes_per_node = 4;
  config.affinity = c.affinity;
  config.link.comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  if (c.with_fault_policy) {
    cl::ShardFaultPolicy policy;
    policy.faults = c.faults;
    policy.retry.max_attempts = 3;
    policy.retry.backoff_base_ms = 0.25;  // real sleeps on TCP: keep tiny
    config.fault = policy;
  }

  // Reference run: driver-owned in-process transport.
  const auto in_process = cl::link_elastic(left, right, config);

  // Socket run: same seed, real frames, real failures.
  cl::ClusterService service(config.link, right);
  net::ShardServerOptions server_opts;
  server_opts.faults = c.faults;
  server_opts.injected_delay_ms = 300.0;
  server_opts.workers = 4;  // stalled deadline faults must not queue retries
  net::ShardServer server(service.handler(), server_opts);
  net::TcpTransportOptions client_opts;
  client_opts.port = server.port();
  client_opts.faults = c.faults;
  client_opts.deadline_ms = 120.0;
  net::TcpTransport transport(client_opts);
  config.transport = &transport;
  const auto tcp = cl::link_elastic(left, right, config);

  EXPECT_EQ(tcp.decision_fingerprint(), in_process.decision_fingerprint())
      << c.name;
  EXPECT_EQ(tcp.total_matches, in_process.total_matches) << c.name;
  EXPECT_EQ(tcp.total_true_positives, in_process.total_true_positives)
      << c.name;
  EXPECT_EQ(tcp.retries, in_process.retries) << c.name;
  EXPECT_EQ(tcp.dropped_partitions, in_process.dropped_partitions) << c.name;
  EXPECT_EQ(tcp.dropped_pairs, in_process.dropped_pairs) << c.name;
  EXPECT_DOUBLE_EQ(tcp.backoff_ms, in_process.backoff_ms) << c.name;
  EXPECT_EQ(tcp.partitions.size(), in_process.partitions.size()) << c.name;
  const std::size_t compared =
      std::min(tcp.partitions.size(), in_process.partitions.size());
  for (std::size_t i = 0; i < compared; ++i) {
    const auto& a = tcp.partitions[i];
    const auto& b = in_process.partitions[i];
    EXPECT_EQ(a.pid, b.pid) << c.name << " partition " << i;
    EXPECT_EQ(a.completed, b.completed) << c.name << " partition " << i;
    EXPECT_EQ(a.served_by, b.served_by) << c.name << " partition " << i;
    EXPECT_EQ(a.matches, b.matches) << c.name << " partition " << i;
  }
  return in_process;
}

TEST(TransportEquivalence, FaultFree) {
  const auto plain = expect_transport_equivalence({"fault-free", {}, false});
  // An armed policy that injects nothing is the fault-free run.
  const auto armed =
      expect_transport_equivalence({"armed, all-zero", {}, true});
  EXPECT_EQ(armed.decision_fingerprint(), plain.decision_fingerprint());
  EXPECT_EQ(armed.retries, 0u);
  EXPECT_EQ(armed.dropped_partitions, 0u);
}

TEST(TransportEquivalence, TransientFaults) {
  EquivalenceCase c{"transient", {}, true};
  c.faults.seed = 404;
  c.faults.shard_fail_rate = 0.4;  // all four kinds get drawn across runs
  EXPECT_GT(expect_transport_equivalence(c).retries, 0u);
}

TEST(TransportEquivalence, PermanentShardFailure) {
  EquivalenceCase c{"dead node", {}, true};
  c.faults.seed = 405;
  c.faults.fail_shard = 2;
  const auto result = expect_transport_equivalence(c);
  EXPECT_GT(result.dropped_partitions, 0u);
  EXPECT_LT(result.dropped_partitions, result.partitions.size());
}

TEST(TransportEquivalence, HashPartitioningWithFaults) {
  // Last-name affinity hashes a noisy key onto the ring: placement skews,
  // recall does not move (the right list is broadcast), and the skewed
  // placement still replays identically over sockets.
  EquivalenceCase c{"last-name affinity", {}, true};
  c.faults.seed = 9;
  c.faults.shard_fail_rate = 0.3;
  c.affinity = cl::AffinityKey::kLastName;
  EXPECT_GT(expect_transport_equivalence(c).retries, 0u);
}

}  // namespace
