// Serve-latency bench (DESIGN.md §15): closed- and open-loop workloads
// against the online match service, recording client-observed latency
// percentiles (p50/p99/p999) and sustained QPS.
//
// String queries run on the calling thread (MatchService::handle sweeps
// the corpus under a shared lock), so the closed loop measures how the
// service scales with concurrent callers.  Three phases:
//
//   closed  `clients` in-process callers fire back-to-back (saturation
//           QPS and its tails; best of --repeats fresh services)
//   open    arrivals at half the closed-loop QPS on an absolute
//           schedule (tails off saturation)
//   tcp     the same queries through real loopback sockets, plus a
//           fault-injected transport-equivalence check mirroring the
//           ServeClient property test
//
//   --n        corpus size (default 12000; --full: 1000000, where the
//              packed planes outgrow cache)
//   --clients  closed/open-loop caller threads (default 8; --full: 16)
//   --queries  total queries per closed-loop phase (default 4000;
//              --full: 2000 — full-scale queries cost ~1 ms each)
//   --repeats  best-of repeats for the closed loop (default 3)
//   --json     machine-readable output (BENCH_serve_latency.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "datagen/dataset.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/mem_object.hpp"
#include "util/stats.hpp"

namespace {

namespace d = fbf::datagen;
namespace s = fbf::serve;
namespace u = fbf::util;
using Clock = std::chrono::steady_clock;

struct PhaseResult {
  std::string workload;
  std::size_t queries = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  u::LatencySummary latency;
};

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

/// Runs `clients` threads; thread t sends queries t, t + clients, ...
/// below `total` through its own client, sleeping until each one's
/// `due_ms(sent)` offset first (0 = back-to-back), and summarizes the
/// successful round trips.
PhaseResult run_phase(const std::string& label,
                      const std::vector<std::string>& queries,
                      std::size_t total, std::size_t clients,
                      const std::function<fbf::Client()>& make_client,
                      const std::function<double(std::size_t)>& due_ms) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fbf::Client client = make_client();
      std::vector<double>& mine = latencies[t];
      mine.reserve(total / clients + 1);
      std::size_t sent = 0;
      for (std::size_t i = t; i < total; i += clients, ++sent) {
        // Absolute schedule: sleep to the arrival time, never "catch up"
        // by firing late arrivals back-to-back.
        const double wait_ms = due_ms(sent) - elapsed_ms(start);
        if (wait_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(wait_ms));
        }
        const auto begin = Clock::now();
        const auto reply = client.match_string(queries[i % queries.size()]);
        if (reply.ok()) {
          mine.push_back(elapsed_ms(begin));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult result;
  result.workload = label;
  result.wall_ms = elapsed_ms(start);
  std::vector<double> all;
  for (const std::vector<double>& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  result.queries = all.size();
  result.qps = result.wall_ms > 0.0
                   ? static_cast<double>(all.size()) /
                         (result.wall_ms / 1000.0)
                   : 0.0;
  result.latency = u::summarize_latency(all);
  return result;
}

/// Fault-injected transport-equivalence spot check (the bench-side twin
/// of the ServeClient property test): true when every sampled query is
/// fingerprint-equal across backends.
bool check_transport_equivalence(s::MatchService& service,
                                 const std::vector<std::string>& queries) {
  u::FaultConfig faults;
  faults.seed = 1234;
  faults.shard_fail_rate = 0.3;
  const auto in_process =
      std::make_shared<fbf::net::InProcessTransport>(service.handler(),
                                                     faults);
  fbf::net::ShardServerOptions server_options;
  server_options.faults = faults;
  server_options.injected_delay_ms = 100.0;
  fbf::net::ShardServer server(service.handler(), server_options);
  fbf::net::TcpTransportOptions transport_options;
  transport_options.port = server.port();
  transport_options.deadline_ms = 50.0;
  transport_options.faults = faults;
  const auto tcp = std::make_shared<fbf::net::TcpTransport>(transport_options);
  for (std::size_t i = 0; i < 16; ++i) {
    fbf::ClientOptions options;
    options.max_attempts = 8;
    options.shard = i;
    fbf::Client local(in_process, options);
    fbf::Client remote(tcp, options);
    const auto a = local.match_string(queries[i % queries.size()]);
    const auto b = remote.match_string(queries[i % queries.size()]);
    if (!a.ok() || !b.ok() ||
        s::match_response_fingerprint(*a) != s::match_response_fingerprint(*b)) {
      return false;
    }
  }
  server.stop();
  return true;
}

void print_phase(const PhaseResult& r) {
  std::printf("%-8s  %7zu q  %9.1f qps  p50 %7.3f ms  p99 %7.3f ms  "
              "p999 %7.3f ms  max %7.3f ms\n",
              r.workload.c_str(), r.queries, r.qps, r.latency.p50,
              r.latency.p99, r.latency.p999, r.latency.max);
}

}  // namespace

int main(int argc, char** argv) {
  const u::CliArgs args(argc, argv);
  const bool json = args.get_bool("json");
  const bool full = args.get_bool("full");
  const std::size_t n = static_cast<std::size_t>(
      args.get_int("n", full ? 1000000 : 12000));
  const std::size_t clients =
      static_cast<std::size_t>(args.get_int("clients", full ? 16 : 8));
  const std::size_t total = static_cast<std::size_t>(
      args.get_int("queries", full ? 2000 : 4000));
  const std::size_t repeats =
      static_cast<std::size_t>(args.get_int("repeats", 3));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (const auto unknown = args.unknown_flags(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }
  fbf::bench::require_optimized_build_for_recording(json);

  auto built = d::build_paired_dataset(d::FieldKind::kLastName, n, seed);
  if (!built.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  const d::PairedDataset& dataset = built.value();

  auto make_service = [&] {
    s::ServiceOptions options;
    options.max_inflight = 4096;
    auto service = std::make_unique<s::MatchService>(
        options, std::make_shared<fbf::storage::MemObjectBackend>());
    service->index_strings(dataset.clean);
    return service;
  };

  if (!json) {
    std::printf("=== serve latency (corpus=%zu clients=%zu queries=%zu) ===\n",
                n, clients, total);
  }

  // The closed loop reports the best of `repeats` fresh-service runs:
  // it claims service capacity, and best-of trims scheduler noise the
  // same way the table benches trim timing repeats.
  const auto back_to_back = [](std::size_t) { return 0.0; };
  std::vector<PhaseResult> phases;
  {
    PhaseResult best;
    for (std::size_t r = 0; r < repeats; ++r) {
      auto service = make_service();
      PhaseResult run = run_phase(
          "closed", dataset.error, total, clients,
          [&] { return fbf::Client::in_process(*service); }, back_to_back);
      if (run.qps > best.qps) {
        best = run;
      }
    }
    phases.push_back(best);
  }
  const double open_target_qps = phases.back().qps * 0.5;
  auto service = make_service();
  const double interarrival_ms =
      open_target_qps > 0.0
          ? 1000.0 / open_target_qps * static_cast<double>(clients)
          : 0.0;
  phases.push_back(run_phase(
      "open", dataset.error, total / 2, clients,
      [&] { return fbf::Client::in_process(*service); },
      [&](std::size_t sent) {
        return static_cast<double>(sent) * interarrival_ms;
      }));
  {
    // One in-flight request per client, each client on its own kept-alive
    // connection, like production point lookups.
    const std::size_t tcp_clients = std::min<std::size_t>(clients, 4);
    fbf::net::ShardServerOptions server_options;
    server_options.workers = tcp_clients;
    fbf::net::ShardServer server(service->handler(), server_options);
    phases.push_back(run_phase(
        "tcp", dataset.error, std::min<std::size_t>(total / 4, 1000),
        tcp_clients,
        [&] {
          fbf::net::TcpTransportOptions transport_options;
          transport_options.port = server.port();
          return fbf::Client(
              std::make_shared<fbf::net::TcpTransport>(transport_options));
        },
        back_to_back));
    server.stop();
  }
  const bool transport_equal =
      check_transport_equivalence(*service, dataset.error);

  if (json) {
    std::cout << "{\n  \"bench\": \"serve_latency\",\n";
    std::cout << "  \"n\": " << n << ", \"clients\": " << clients
              << ", \"queries\": " << total << ", \"repeats\": " << repeats
              << ", \"seed\": " << seed
              << ", \"cpus\": " << std::thread::hardware_concurrency()
              << ",\n";
    std::cout << "  \"open_target_qps\": " << open_target_qps
              << ", \"transport_equivalent\": "
              << (transport_equal ? "true" : "false") << ",\n";
    std::cout << "  \"rows\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseResult& r = phases[i];
      std::cout << "    {\"workload\": \"" << r.workload
                << "\", \"queries\": " << r.queries
                << ", \"wall_ms\": " << r.wall_ms << ", \"qps\": " << r.qps
                << ", \"p50_ms\": " << r.latency.p50
                << ", \"p99_ms\": " << r.latency.p99
                << ", \"p999_ms\": " << r.latency.p999
                << ", \"max_ms\": " << r.latency.max << "}"
                << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
    return transport_equal ? 0 : 1;
  }

  for (const PhaseResult& r : phases) {
    print_phase(r);
  }
  std::printf("\ntransport equivalence under faults: %s\n",
              transport_equal ? "ok" : "FAILED");
  return transport_equal ? 0 : 1;
}
