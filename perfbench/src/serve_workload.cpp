// point-1m and mixed-50k: the online match daemon under open-loop load.
//
// The process hosts a serve::MatchService behind a net::ShardServer on
// loopback with fbf_served's default options (2 workers, 0.25 ms linger,
// max batch 8, 1 batch thread, 64 in flight) and drives it from at most
// nproc sender threads.  Each sender keeps one request in flight over
// fbf::Client + net::TcpTransport (one connection per call).  Arrivals
// follow a seeded Poisson schedule at a fixed absolute rate; a sender
// takes the next due arrival, sleeps until it is due, and every latency
// is timed from the due time, so a stalled sender charges its wait to the
// requests behind it.
//
// A run is: set-up (kSetupReps fresh daemon starts, timed), one phase at
// the reference rate (the latency metrics), then the rate ladder
// (capacity_ops_s), then the correctness checks.  The traced run replaces
// the ladder with a traced copy of the reference phase and the direct
// layer replays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "datagen/dataset.hpp"
#include "layers.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/record_codec.hpp"
#include "linkage/snapshot.hpp"
#include "net/frame.hpp"
#include "net/tcp.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "storage/local_dir.hpp"
#include "util/rng.hpp"

namespace fbfbench {

namespace c = fbf::core;
namespace d = fbf::datagen;
namespace l = fbf::linkage;
namespace n = fbf::net;
namespace s = fbf::serve;
namespace u = fbf::util;
namespace fs = std::filesystem;

namespace {

/// Matches asked for per reply: the service's cap, so a string reply is
/// never cut before the ground-truth id.
constexpr std::uint32_t kMaxMatches = 256;
/// Every k-th string / record reply is compared against a direct replay.
constexpr std::size_t kSampleEvery = 8;
/// Payloads kept for the frame-codec replay.
constexpr std::size_t kCodecCaptures = 4096;
/// Share of --seconds spent in the reference-rate phase.
constexpr double kRefShare = 0.5;
/// Untimed warm-up at the reference rate before it.
constexpr double kWarmupSeconds = 1.0;
/// Length of one ladder rung.
constexpr double kRungSeconds = 1.0;
/// Tail statistics are taken per window of this length, see windowed().
constexpr double kWindowMs = 200.0;
/// Daemon starts timed for setup_s (median).
constexpr int kSetupReps = 11;
/// A sender this late for an op gives it up (counted as failed).
constexpr double kMaxLateMs = 2000.0;
/// Traced queries replayed through the core layer.
constexpr std::size_t kCoreReplayQueries = 256;

enum Kind : std::uint8_t { kQuery = 0, kRecord = 1, kIngest = 2 };
constexpr const char* kKindName[] = {"query", "record", "ingest"};
constexpr const char* kClientSpan[] = {"client.query", "client.record",
                                       "client.ingest"};

struct Op {
  Kind kind = kQuery;
  std::uint32_t input = 0;
  double due_ms = 0.0;  ///< offset from the phase start
};

struct Outcome {
  Kind kind = kQuery;
  std::uint32_t input = 0;
  bool ok = false;
  double latency_ms = 0.0;  ///< reply time minus due time
  double late_ms = 0.0;     ///< send time minus due time
  double due_ms = 0.0;      ///< the op's due offset in its phase
  std::uint64_t req = 0;    ///< payload hash (traced phases)
};

struct Inputs {
  d::PairedDataset strings;               ///< clean = corpus, error = queries
  std::vector<l::PersonRecord> seed;      ///< the store's initial records
  std::vector<l::PersonRecord> probes;    ///< record queries
  std::vector<l::PersonRecord> ingests;   ///< one record per ingest op
};

/// Correctness evidence gathered while the load runs (checked after).
struct Evidence {
  std::mutex mu;
  std::uint64_t truth_missing = 0;
  std::uint64_t truth_checked = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> string_fingerprints;
  std::vector<std::pair<std::uint32_t, fbf::MatchResponse>> record_replies;
  /// (sender, seq) in each sender's completion order.
  std::vector<std::pair<std::size_t, std::uint64_t>> acks;
  bool tampered = false;
};

/// Frames seen by the wrapped handler (traced phases).
struct Capture {
  n::FrameContext ctx;
  std::string request;
  std::string reply;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::uint64_t transport_calls = 0;
};

s::ServiceOptions daemon_options() {
  // fbf_served defaults.
  s::ServiceOptions options;
  options.query.field_class = d::field_class_of(d::FieldKind::kLastName);
  options.query.exec.threads = 1;
  options.coalescer.max_linger_ms = 0.25;
  options.coalescer.max_batch = 8;
  options.coalescer.max_inflight = 64;
  options.max_inflight = 64;
  return options;
}

Inputs make_inputs(const Options& opt) {
  Inputs in;
  auto built =
      d::build_paired_dataset(d::FieldKind::kLastName, opt.corpus_n, opt.seed);
  if (!built.ok()) {
    std::fprintf(stderr, "datagen: %s\n", built.status().to_string().c_str());
    std::exit(2);
  }
  in.strings = std::move(built.value());
  if (opt.store_n == 0) {
    return in;
  }
  // One people draw split into the stored population and fresh arrivals
  // (ids stay unique).  A tenth of the store is typo'd duplicates, so
  // entities hold more than one record; probes are typo'd copies of
  // stored people; half the ingests are fresh people, half typo'd
  // copies of stored ones (attach vs found).
  u::Rng rng(opt.seed * 7919 + 17);
  const std::size_t dup_n = opt.store_n / 10;
  const std::size_t base_n = opt.store_n - dup_n;
  const std::size_t fresh_n = opt.ingest_pool / 2;
  std::vector<l::PersonRecord> people =
      l::generate_people(base_n + fresh_n, rng);
  std::vector<l::PersonRecord> fresh(people.begin() + base_n, people.end());
  people.resize(base_n);
  const l::RecordErrorModel model;
  auto typo_sample = [&](std::size_t count) {
    std::vector<l::PersonRecord> picked;
    for (std::size_t i = 0; i < count; ++i) {
      picked.push_back(people[rng.below(people.size())]);
    }
    return l::make_error_records(picked, model, rng);
  };
  in.seed = people;
  const std::vector<l::PersonRecord> dups = typo_sample(dup_n);
  in.seed.insert(in.seed.end(), dups.begin(), dups.end());
  in.probes = typo_sample(std::max<std::size_t>(opt.store_n / 5, 64));
  const std::vector<l::PersonRecord> again =
      typo_sample(opt.ingest_pool - fresh_n);
  for (std::size_t i = 0; i < opt.ingest_pool; ++i) {
    in.ingests.push_back(i % 2 == 0 && i / 2 < fresh.size() ? fresh[i / 2]
                                                            : again[i / 2]);
  }
  return in;
}

/// Ingests the seed records into a durable store at `dir` (batches of
/// 500), the state every daemon start in this run recovers.
void seed_store(const Inputs& in, const std::string& dir) {
  const s::ServiceOptions options = daemon_options();
  l::DurableEntityStore store(
      options.comparator,
      std::make_shared<fbf::storage::LocalDirBackend>(dir), options.durability);
  if (auto rec = store.recover(); !rec.ok()) {
    std::fprintf(stderr, "seed recover: %s\n",
                 rec.status().to_string().c_str());
    std::exit(2);
  }
  constexpr std::size_t kBatch = 500;
  for (std::size_t i = 0; i < in.seed.size(); i += kBatch) {
    const std::size_t end = std::min(in.seed.size(), i + kBatch);
    const std::span<const l::PersonRecord> batch(in.seed.data() + i, end - i);
    if (auto stats = store.ingest(batch); !stats.ok()) {
      std::fprintf(stderr, "seed ingest: %s\n",
                   stats.status().to_string().c_str());
      std::exit(2);
    }
  }
}

std::vector<Op> make_schedule(const Options& opt, const Inputs& in,
                              double rate, double duration_s,
                              std::uint64_t stream,
                              std::size_t& ingest_cursor) {
  u::Rng rng(opt.seed * 1000003ull + stream);
  std::vector<Op> ops;
  double t_ms = 0.0;
  const double mean_gap_ms = 1000.0 / rate;
  for (;;) {
    t_ms += -std::log(1.0 - rng.uniform()) * mean_gap_ms;
    if (t_ms >= duration_s * 1000.0) {
      break;
    }
    Op op;
    op.due_ms = t_ms;
    const double pick = rng.uniform();
    if (!in.ingests.empty() && pick < opt.mix_ingest) {
      op.kind = kIngest;
      op.input =
          static_cast<std::uint32_t>(ingest_cursor++ % in.ingests.size());
    } else if (!in.probes.empty() && pick < opt.mix_ingest + opt.mix_record) {
      op.kind = kRecord;
      op.input = static_cast<std::uint32_t>(rng.below(in.probes.size()));
    } else {
      op.kind = kQuery;
      op.input = static_cast<std::uint32_t>(rng.below(in.strings.size()));
    }
    ops.push_back(op);
  }
  return ops;
}

class Harness {
 public:
  Harness(const Options& opt, const Inputs& in, s::MatchService& service,
          SpanLog* spans)
      : opt_(opt), in_(in), service_(service), spans_(spans) {
    n::ShardServerOptions server_options;
    server_options.workers = 2;
    n::ShardHandler handler = service.handler();
    if (spans != nullptr) {
      handler = [this](const n::FrameContext& ctx, std::string_view payload) {
        const std::uint64_t req = u::fnv1a64(payload);
        u::Result<std::string> reply = u::Status::unavailable("unset");
        {
          const SpanGuard span(spans_, "serve.handle", req);
          reply = service_.handle(ctx, payload);
        }
        std::lock_guard<std::mutex> lock(capture_mu_);
        if (captures_.size() < kCodecCaptures && reply.ok()) {
          captures_.push_back({ctx, std::string(payload), *reply});
        }
        return reply;
      };
    }
    server_ = std::make_unique<n::ShardServer>(std::move(handler),
                                               server_options);
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void stop() { server_->stop(); }

  PhaseResult run(const std::vector<Op>& ops, bool traced) {
    PhaseResult result;
    result.outcomes.resize(ops.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> calls{0};
    std::vector<std::thread> senders;
    SpanLog* spans = traced ? spans_ : nullptr;
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t t = 0; t < opt_.senders; ++t) {
      senders.emplace_back([&, t] {
        n::TcpTransportOptions transport_options;
        transport_options.port = server_->port();
        fbf::Client client(
            std::make_shared<n::TcpTransport>(transport_options));
        for (std::size_t i = next.fetch_add(1); i < ops.size();
             i = next.fetch_add(1)) {
          const Op& op = ops[i];
          const auto due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(op.due_ms));
          std::this_thread::sleep_until(due);
          if (ms_since(due) > kMaxLateMs) {
            // The service stopped keeping up: give the op up as failed
            // instead of letting the phase run on for the backlog.
            Outcome& out = result.outcomes[i];
            out.kind = op.kind;
            out.due_ms = op.due_ms;
            out.late_ms = ms_since(due);
            continue;
          }
          result.outcomes[i] = issue(client, op, t, i, due, spans);
        }
        calls += client.transport_stats().calls;
      });
    }
    for (std::thread& sender : senders) {
      sender.join();
    }
    result.transport_calls = calls.load();
    return result;
  }

  [[nodiscard]] Evidence& evidence() { return evidence_; }
  [[nodiscard]] std::vector<Capture> take_captures() {
    std::lock_guard<std::mutex> lock(capture_mu_);
    return std::move(captures_);
  }

 private:
  Outcome issue(fbf::Client& client, const Op& op, std::size_t sender,
                std::size_t index, Clock::time_point due, SpanLog* spans) {
    Outcome out;
    out.kind = op.kind;
    out.input = op.input;
    out.due_ms = op.due_ms;
    if (op.kind == kIngest) {
      const std::span<const l::PersonRecord> batch(&in_.ingests[op.input], 1);
      if (spans != nullptr) {
        s::IngestRequest request;
        request.records.assign(batch.begin(), batch.end());
        out.req = u::fnv1a64(s::encode_ingest_request(request));
      }
      const auto send = Clock::now();
      u::Result<s::IngestReply> reply = [&] {
        const SpanGuard span(spans, kClientSpan[kIngest], out.req);
        return client.ingest(batch);
      }();
      finish(out, due, send);
      out.ok = reply.ok();
      if (reply.ok()) {
        std::lock_guard<std::mutex> lock(evidence_.mu);
        evidence_.acks.emplace_back(sender, reply->seq);
      }
      return out;
    }
    fbf::MatchRequest request;
    request.max_matches = kMaxMatches;
    if (op.kind == kQuery) {
      request.kind = fbf::MatchRequest::Kind::kString;
      request.text = in_.strings.error[op.input];
    } else {
      request.kind = fbf::MatchRequest::Kind::kRecord;
      request.record = in_.probes[op.input];
    }
    if (spans != nullptr) {
      out.req = u::fnv1a64(s::encode_match_request(request));
    }
    const auto send = Clock::now();
    u::Result<fbf::MatchResponse> reply = [&] {
      const SpanGuard span(spans, kClientSpan[op.kind], out.req);
      return client.match(request);
    }();
    finish(out, due, send);
    out.ok = reply.ok();
    if (!reply.ok()) {
      return out;
    }
    const bool sampled = index % kSampleEvery == 0;
    if (op.kind == kQuery) {
      fbf::MatchResponse& resp = reply.value();
      bool tamper = false;
      {
        std::lock_guard<std::mutex> lock(evidence_.mu);
        if (opt_.tamper && !evidence_.tampered) {
          evidence_.tampered = tamper = true;
        }
      }
      if (tamper) {
        std::erase_if(resp.matches, [&](const fbf::MatchResponse::Match& m) {
          return m.id == op.input;
        });
      }
      const bool found = std::any_of(
          resp.matches.begin(), resp.matches.end(),
          [&](const fbf::MatchResponse::Match& m) { return m.id == op.input; });
      std::lock_guard<std::mutex> lock(evidence_.mu);
      ++evidence_.truth_checked;
      evidence_.truth_missing += found ? 0 : 1;
      if (sampled) {
        evidence_.string_fingerprints.emplace_back(
            op.input, s::match_response_fingerprint(resp));
      }
    } else if (sampled) {
      std::lock_guard<std::mutex> lock(evidence_.mu);
      evidence_.record_replies.emplace_back(op.input, std::move(reply.value()));
    }
    return out;
  }

  static void finish(Outcome& out, Clock::time_point due,
                     Clock::time_point send) {
    const auto end = Clock::now();
    out.latency_ms = ms_between(due, end);
    out.late_ms = std::max(0.0, ms_between(due, send));
  }

  const Options& opt_;
  const Inputs& in_;
  s::MatchService& service_;
  SpanLog* spans_;
  Evidence evidence_;
  std::mutex capture_mu_;
  std::vector<Capture> captures_;
  /// Last: destroyed (and stopped) first, while the handler's state lives.
  std::unique_ptr<n::ShardServer> server_;
};

std::vector<double> latencies(const PhaseResult& phase, int kind) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok && (kind < 0 || o.kind == kind)) {
      out.push_back(o.latency_ms);
    }
  }
  return out;
}

std::vector<double> lateness(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    out.push_back(o.late_ms);
  }
  return out;
}

std::uint64_t failures(const PhaseResult& phase) {
  return static_cast<std::uint64_t>(
      std::count_if(phase.outcomes.begin(), phase.outcomes.end(),
                    [](const Outcome& o) { return !o.ok; }));
}

/// Tail statistics are taken per window of consecutive arrivals and the
/// median over windows is reported, so one scheduler hiccup in a window
/// moves that window only.  `value` returns the sample of an outcome (or
/// a negative number to skip it).
template <typename Value>
double windowed(const PhaseResult& phase, double window_ms, double q,
                Value value) {
  std::map<long, std::vector<double>> windows;
  for (const Outcome& o : phase.outcomes) {
    const double v = value(o);
    if (v >= 0.0) {
      windows[static_cast<long>(o.due_ms / window_ms)].push_back(v);
    }
  }
  std::vector<double> per_window;
  for (const auto& [index, samples] : windows) {
    per_window.push_back(percentile(samples, q));
  }
  return median(per_window);
}

double windowed_latency(const PhaseResult& phase, double window_ms, double q,
                        int kind) {
  return windowed(phase, window_ms, q, [kind](const Outcome& o) {
    return o.ok && (kind < 0 || o.kind == kind) ? o.latency_ms : -1.0;
  });
}

/// A ladder rung passes when nothing failed, the generator kept up and
/// every operation type met its p99 limit (window medians, see
/// windowed()).
bool rung_passes(const Options& opt, const PhaseResult& phase,
                 std::string& why) {
  if (failures(phase) != 0) {
    why = std::to_string(failures(phase)) + " failed";
    return false;
  }
  const double late = windowed(phase, kWindowMs, 0.99,
                               [](const Outcome& o) { return o.late_ms; });
  if (late > opt.limit_query_ms) {
    why = "generator behind (late p99 " + std::to_string(late) + " ms)";
    return false;
  }
  const double limits[] = {opt.limit_query_ms, opt.limit_record_ms,
                           opt.limit_ingest_ms};
  for (int kind = kQuery; kind <= kIngest; ++kind) {
    const double p99 = windowed_latency(phase, kWindowMs, 0.99, kind);
    if (p99 > limits[kind]) {
      why = std::string(kKindName[kind]) + " p99 " + std::to_string(p99) +
            " ms";
      return false;
    }
  }
  return true;
}

void print_phase(const char* label, double rate, const PhaseResult& phase) {
  std::printf("%-10s %8.1f ops/s  %6zu ops", label, rate,
              phase.outcomes.size());
  for (int kind = kQuery; kind <= kIngest; ++kind) {
    const std::vector<double> lat = latencies(phase, kind);
    if (!lat.empty()) {
      std::printf("  %s p50 %.3f p99 %.3f ms", kKindName[kind],
                  percentile(lat, 0.5), percentile(lat, 0.99));
    }
  }
  std::printf("  late p99 %.3f ms  failed %llu\n",
              percentile(lateness(phase), 0.99),
              static_cast<unsigned long long>(failures(phase)));
}

struct Setup {
  std::unique_ptr<s::MatchService> service;
  std::vector<double> total_ms;
  std::vector<double> recover_ms;
  std::vector<double> index_ms;
};

/// kSetupReps daemon starts over the run's store directory; the last
/// instance stays up to serve.
Setup start_daemon(const Inputs& in, const std::string& dir,
                   const std::shared_ptr<TimedBackend>& timed, Report& report) {
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.service.reset();
    std::shared_ptr<fbf::storage::StorageBackend> backend =
        std::make_shared<fbf::storage::LocalDirBackend>(dir);
    if (timed != nullptr && rep + 1 == kSetupReps) {
      backend = timed;
    }
    const auto t0 = Clock::now();
    setup.service =
        std::make_unique<s::MatchService>(daemon_options(), backend);
    const auto t1 = Clock::now();
    if (auto rec = setup.service->recover(); !rec.ok()) {
      report.fail("recover: " + rec.status().to_string());
    }
    const auto t2 = Clock::now();
    setup.service->index_strings(in.strings.clean);
    const auto t3 = Clock::now();
    setup.total_ms.push_back(ms_between(t0, t3));
    setup.recover_ms.push_back(ms_between(t1, t2));
    setup.index_ms.push_back(ms_between(t2, t3));
  }
  if (setup.service->durable_store().store().size() != in.seed.size()) {
    report.fail("recovered store holds " +
                std::to_string(setup.service->durable_store().store().size()) +
                " records, seeded " + std::to_string(in.seed.size()));
  }
  return setup;
}

/// The reply MatchService::match_string builds for `result` (the oracle
/// for sampled string replies).
fbf::MatchResponse expected_string_reply(const c::MatchCorpus& corpus,
                                         c::CorpusResult result,
                                         std::uint32_t limit) {
  fbf::MatchResponse resp;
  resp.counters = result.counters;
  if (result.matches.size() > limit) {
    result.matches.resize(limit);
  }
  resp.comparisons = corpus.size();
  for (const std::uint32_t id : result.matches) {
    resp.matches.push_back({id, 0, 1.0, corpus.value(id)});
  }
  return resp;
}

void check_replies(const Inputs& in,
                   s::MatchService& service, Evidence& ev, Report& report) {
  if (ev.truth_missing != 0) {
    report.fail(std::to_string(ev.truth_missing) + " of " +
                std::to_string(ev.truth_checked) +
                " string replies lack their ground-truth clean id");
  }
  const std::uint32_t limit =
      std::min(kMaxMatches, daemon_options().max_matches_limit);
  std::size_t bad = 0;
  for (const auto& [input, fingerprint] : ev.string_fingerprints) {
    const fbf::MatchResponse want = expected_string_reply(
        service.corpus(), service.corpus().query(in.strings.error[input]),
        limit);
    bad += s::match_response_fingerprint(want) == fingerprint ? 0 : 1;
  }
  if (bad != 0) {
    report.fail(std::to_string(bad) + " of " +
                std::to_string(ev.string_fingerprints.size()) +
                " sampled string replies differ from corpus().query");
  }
  // A record reply saw the store prefix of `comparisons` records; the
  // store is append-only with stable entity ids, so the final store's
  // unbounded probe restricted to that prefix is the expected reply.
  bad = 0;
  const l::EntityStore& store = service.durable_store().store();
  for (const auto& [input, got] : ev.record_replies) {
    const l::EntityStore::ProbeResult full = store.probe(in.probes[input], 0);
    std::vector<fbf::MatchResponse::Match> want;
    for (const l::EntityStore::ProbeMatch& m : full.matches) {
      if (m.record_index < got.comparisons && want.size() < limit) {
        want.push_back({m.record_index, m.entity_id, m.score, {}});
      }
    }
    bool same = want.size() == got.matches.size();
    for (std::size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].id == got.matches[i].id &&
             want[i].entity == got.matches[i].entity &&
             want[i].score == got.matches[i].score;
    }
    bad += same ? 0 : 1;
  }
  if (bad != 0) {
    report.fail(std::to_string(bad) + " of " +
                std::to_string(ev.record_replies.size()) +
                " sampled record replies differ from EntityStore::probe");
  }
  // Ingest acks: strictly increasing per sender, distinct and gap-free
  // overall (this run's ingests are the only writers).
  std::map<std::size_t, std::uint64_t> last;
  std::vector<std::uint64_t> seqs;
  for (const auto& [sender, seq] : ev.acks) {
    if (last.count(sender) != 0 && seq <= last[sender]) {
      report.fail("ingest ack seq not increasing for sender " +
                  std::to_string(sender));
      break;
    }
    last[sender] = seq;
    seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  if (std::adjacent_find(seqs.begin(), seqs.end()) != seqs.end() ||
      (!seqs.empty() && seqs.back() - seqs.front() + 1 != seqs.size())) {
    report.fail("ingest ack seqs are not distinct and gap-free");
  }
}

/// After the run: a fresh recover() over the same directory must
/// reproduce the live store's size and entity ids.
void check_recovery(const std::string& dir,
                    std::unique_ptr<s::MatchService>& service, Report& report) {
  const l::EntityStore& live = service->durable_store().store();
  const std::size_t size = live.size();
  const std::vector<std::uint32_t> ids(live.entity_ids().begin(),
                                       live.entity_ids().end());
  service.reset();
  const s::ServiceOptions options = daemon_options();
  l::DurableEntityStore fresh(
      options.comparator,
      std::make_shared<fbf::storage::LocalDirBackend>(dir), options.durability);
  if (auto rec = fresh.recover(); !rec.ok()) {
    report.fail("post-run recover: " + rec.status().to_string());
    return;
  }
  const std::vector<std::uint32_t> got(fresh.store().entity_ids().begin(),
                                       fresh.store().entity_ids().end());
  if (fresh.store().size() != size || got != ids) {
    report.fail("post-run recover gives " +
                std::to_string(fresh.store().size()) + " records, live had " +
                std::to_string(size) +
                (got != ids ? " (entity ids differ)" : ""));
  }
}

// --- traced-run analysis -------------------------------------------------

/// Pairs each client span with the handler span of the same request id
/// that lies inside it.
std::unordered_map<std::uint64_t, double> handler_ms_by_client(
    const std::vector<Span>& spans, std::vector<double>& rtt_self) {
  std::unordered_multimap<std::uint64_t, const Span*> handlers;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == "serve.handle") {
      handlers.emplace(span.req, &span);
    }
  }
  std::unordered_map<std::uint64_t, double> by_client;
  for (const Span& span : spans) {
    if (std::string_view(span.name).rfind("client.", 0) != 0) {
      continue;
    }
    const auto [lo, hi] = handlers.equal_range(span.req);
    for (auto it = lo; it != hi; ++it) {
      const Span& h = *it->second;
      if (h.start_ns >= span.start_ns && h.end_ns <= span.end_ns) {
        const double handler_ms =
            static_cast<double>(h.end_ns - h.start_ns) / 1e6;
        by_client[span.id] = handler_ms;
        rtt_self.push_back(
            static_cast<double>(span.end_ns - span.start_ns) / 1e6 -
            handler_ms);
        break;
      }
    }
  }
  return by_client;
}

void add_not_exercised_join(Report& report) {
  for (const char* field : {"ln", "addr"}) {
    const std::string prefix = std::string("core.join.") + field;
    report.add(prefix + ".gen_ms", 0.0, "ms");
    report.add(prefix + ".pair_ms", 0.0, "ms");
    report.add(prefix + ".candidates", 0.0, "count");
    report.add(prefix + ".verify_calls", 0.0, "count");
    report.add(prefix + ".selectivity", 0.0, "ratio");
  }
}

/// The traced reference phase and what was collected around it.
struct TracedRun {
  const Inputs& in;
  s::MatchService& service;
  const Setup& setup;
  const PhaseResult& traced;
  std::vector<Span> spans;
  std::vector<Capture> captures;
  StorageTally tally;
  fbf::telemetry::MetricsSnapshot before;
  fbf::telemetry::MetricsSnapshot after;
  std::uint64_t checkpoints_before = 0;
  std::string seed_dir;    ///< the pristine seeded store
  std::string replay_dir;  ///< where the ingest replay copies it
};

/// net, serve and core rows: client spans against wrapped-handler spans,
/// the frame-codec replay and the direct core replay.
void report_net_serve_core(const TracedRun& t, Report& report) {
  std::vector<double> rtt_self;
  const auto handler_ms = handler_ms_by_client(t.spans, rtt_self);
  std::vector<double> handle[3];
  std::unordered_map<std::uint64_t, const Span*> client_by_req;
  for (const Span& span : t.spans) {
    for (int kind = kQuery; kind <= kIngest; ++kind) {
      if (std::string_view(span.name) == kClientSpan[kind]) {
        const auto it = handler_ms.find(span.id);
        if (it != handler_ms.end()) {
          handle[kind].push_back(it->second);
        }
        client_by_req[span.req] = &span;
      }
    }
  }
  report.add("net.rtt_self_p50_ms", percentile(rtt_self, 0.5), "ms");
  report.add("net.rtt_self_p99_ms", percentile(rtt_self, 0.99), "ms");

  double codec_us = 0.0;
  double bytes = 0.0;
  if (!t.captures.empty()) {
    const auto start = Clock::now();
    std::size_t decoded = 0;
    for (const Capture& cap : t.captures) {
      n::FrameContext reply_ctx = cap.ctx;
      reply_ctx.type = n::reply_frame_type(cap.ctx.type);
      const std::string req_frame = n::encode_frame(cap.ctx, cap.request);
      const std::string reply_frame = n::encode_frame(reply_ctx, cap.reply);
      decoded += n::try_decode_frame(req_frame).status ==
                         n::DecodeStatus::kFrame
                     ? 1
                     : 0;
      decoded += n::try_decode_frame(reply_frame).status ==
                         n::DecodeStatus::kFrame
                     ? 1
                     : 0;
      bytes += static_cast<double>(req_frame.size() + reply_frame.size());
    }
    codec_us =
        ms_since(start) * 1000.0 / static_cast<double>(t.captures.size());
    bytes /= static_cast<double>(t.captures.size());
    if (decoded != 2 * t.captures.size()) {
      report.fail("frame codec replay failed to decode its own frames");
    }
  }
  report.add("net.frame_codec_us", codec_us, "us");
  report.add("net.bytes_per_op", bytes, "B");
  report.add("net.attempts_per_op",
             t.traced.outcomes.empty()
                 ? 0.0
                 : static_cast<double>(t.traced.transport_calls) /
                       static_cast<double>(t.traced.outcomes.size()),
             "count");
  for (int kind = kQuery; kind <= kIngest; ++kind) {
    const std::string prefix = std::string("serve.handle_") + kKindName[kind];
    report.add(prefix + "_p50_ms", percentile(handle[kind], 0.5), "ms");
    report.add(prefix + "_p99_ms", percentile(handle[kind], 0.99), "ms");
  }

  // core: replay the traced string queries directly.
  std::vector<std::string> sample;
  for (const Outcome& o : t.traced.outcomes) {
    if (o.kind == kQuery && sample.size() < kCoreReplayQueries) {
      sample.push_back(t.in.strings.error[o.input]);
    }
  }
  const CoreReplay core = replay_core(
      t.service.corpus(), t.service.corpus().options(), sample);
  // serve self time (an estimate): handler span minus the solo core
  // replay of the same query.
  std::vector<double> serve_self;
  std::vector<double> gap;
  const double codec_ms = codec_us / 1000.0;
  for (const Outcome& o : t.traced.outcomes) {
    if (o.kind != kQuery || !o.ok) {
      continue;
    }
    const auto client = client_by_req.find(o.req);
    if (client == client_by_req.end()) {
      continue;
    }
    const auto handler = handler_ms.find(client->second->id);
    if (handler == handler_ms.end()) {
      continue;
    }
    gap.push_back(o.latency_ms - (o.late_ms + handler->second + codec_ms));
    const auto solo = core.solo_ms.find(t.in.strings.error[o.input]);
    if (solo != core.solo_ms.end()) {
      serve_self.push_back(handler->second - solo->second);
    }
  }
  report.add("serve.self_p50_ms", percentile(serve_self, 0.5), "ms");
  const double batches = static_cast<double>(
      t.after.gauge("serve.batch.batches") -
      t.before.gauge("serve.batch.batches"));
  const double batched = static_cast<double>(
      t.after.gauge("serve.batch.queries") -
      t.before.gauge("serve.batch.queries"));
  report.add("serve.batch_mean", batches > 0.0 ? batched / batches : 0.0,
             "count");
  report.add("serve.rejected",
             static_cast<double>(
                 t.after.counter("serve.overloaded") -
                 t.before.counter("serve.overloaded") +
                 static_cast<std::uint64_t>(
                     t.after.gauge("serve.batch.rejected") -
                     t.before.gauge("serve.batch.rejected"))),
             "count");
  report_core(report, core);
  report.add("core.build_s", median(t.setup.index_ms) / 1000.0, "s");
  report.add("unattributed_ms", mean(gap), "ms");
}

/// linkage and storage rows: probes replayed on the store, ingests
/// replayed into a fresh copy of the seeded store, and the storage
/// decorator's view of the traced phase.
void report_linkage_storage(const TracedRun& t, Report& report) {
  std::vector<double> probe_ms;
  double comparisons = 0.0;
  double verify = 0.0;
  std::vector<const l::PersonRecord*> traced_ingests;
  std::size_t ingested_ok = 0;
  for (const Outcome& o : t.traced.outcomes) {
    if (o.kind == kRecord) {
      const auto start = Clock::now();
      const l::EntityStore::ProbeResult probe =
          t.service.durable_store().store().probe(t.in.probes[o.input],
                                                  kMaxMatches);
      probe_ms.push_back(ms_since(start));
      comparisons += static_cast<double>(probe.comparisons);
      verify += static_cast<double>(probe.counters.verify_calls);
    } else if (o.kind == kIngest) {
      traced_ingests.push_back(&t.in.ingests[o.input]);
      ingested_ok += o.ok ? 1 : 0;
    }
  }
  const double probes = static_cast<double>(probe_ms.size());
  report.add("linkage.probe_ms", median(probe_ms), "ms");
  report.add("linkage.comparisons_per_probe",
             probes > 0 ? comparisons / probes : 0.0, "count");
  report.add("linkage.verify_per_probe", probes > 0 ? verify / probes : 0.0,
             "count");
  double ingest_match_ms = 0.0;
  double record_bytes = 0.0;
  if (!traced_ingests.empty()) {
    const std::string replay_dir = t.replay_dir;
    fs::copy(t.seed_dir, replay_dir, fs::copy_options::recursive);
    const s::ServiceOptions options = daemon_options();
    l::DurableEntityStore replay(
        options.comparator,
        std::make_shared<fbf::storage::LocalDirBackend>(replay_dir),
        options.durability);
    if (!replay.recover().ok()) {
      report.fail("replay store failed to recover");
    }
    std::vector<double> per_ingest;
    for (const l::PersonRecord* record : traced_ingests) {
      std::string encoded;
      l::wire::put_record(encoded, *record);
      record_bytes += static_cast<double>(encoded.size());
      const auto stats =
          replay.ingest(std::span<const l::PersonRecord>(record, 1));
      if (stats.ok()) {
        per_ingest.push_back(stats->signature_ms + stats->match_ms);
      }
    }
    ingest_match_ms = mean(per_ingest);
  }
  report.add("linkage.ingest_match_ms", ingest_match_ms, "ms");

  // storage: the decorator's view of the traced phase.
  report.add("storage.sync_p50_ms", percentile(t.tally.sync_ms, 0.5), "ms");
  report.add("storage.sync_p99_ms", percentile(t.tally.sync_ms, 0.99), "ms");
  report.add("storage.syncs_per_ingest",
             ingested_ok > 0 ? static_cast<double>(t.tally.sync_ms.size()) /
                                   static_cast<double>(ingested_ok)
                             : 0.0,
             "count");
  report.add("storage.put_ms", mean(t.tally.put_ms), "ms");
  report.add("storage.checkpoints",
             static_cast<double>(
                 t.service.durable_store().stats().checkpoints -
                 t.checkpoints_before),
             "count");
  report.add("storage.write_amp",
             record_bytes > 0.0
                 ? static_cast<double>(t.tally.bytes_put +
                                       t.tally.bytes_appended) /
                       record_bytes
                 : 0.0,
             "ratio");
  report.add("storage.recover_s", median(t.setup.recover_ms) / 1000.0, "s");
}

}  // namespace

int run_serve_workload(const Options& opt) {
  // Inputs and the seeded store, outside every timed interval.
  const Inputs in = make_inputs(opt);
  const std::string root =
      opt.work_dir + "/serve-" + std::to_string(::getpid());
  const std::string seed_dir = root + "/seed";
  const std::string run_dir = root + "/run";
  fs::remove_all(root);
  fs::create_directories(seed_dir);
  const auto seed_start = Clock::now();
  if (!in.seed.empty()) {
    seed_store(in, seed_dir);
  }
  fs::copy(seed_dir, run_dir, fs::copy_options::recursive);
  std::printf("%s: corpus=%zu store=%zu probes=%zu ingest_pool=%zu "
              "(store seeded in %.2f s)\n",
              opt.workload.c_str(), in.strings.size(), in.seed.size(),
              in.probes.size(), in.ingests.size(),
              ms_since(seed_start) / 1000.0);

  Report report;
  SpanLog spans;
  SpanLog* traced_spans = opt.trace ? &spans : nullptr;
  std::shared_ptr<TimedBackend> timed;
  if (opt.trace) {
    timed = std::make_shared<TimedBackend>(
        std::make_shared<fbf::storage::LocalDirBackend>(run_dir), &spans);
  }

  RssGrowth rss(/*sample_peak=*/false);
  Setup setup = start_daemon(in, run_dir, timed, report);
  std::printf("daemon start: median %.3f s (recover %.3f s, index %.3f s), "
              "kernel %s\n",
              median(setup.total_ms) / 1000.0,
              median(setup.recover_ms) / 1000.0,
              median(setup.index_ms) / 1000.0,
              setup.service->corpus().kernel_name());
  Harness harness(opt, in, *setup.service, traced_spans);

  std::size_t ingest_cursor = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto run_phase = [&](double rate, double duration_s, std::uint64_t stream,
                       bool traced) {
    const std::vector<Op> ops =
        make_schedule(opt, in, rate, duration_s, stream, ingest_cursor);
    PhaseResult phase = harness.run(ops, traced);
    attempted += phase.outcomes.size();
    failed += failures(phase);
    return phase;
  };

  // Warm-up at the reference rate (caches, lazy set-up, connection
  // paths); its replies are checked like any others but not timed.
  const PhaseResult warmup = run_phase(opt.ref_rate, kWarmupSeconds, 0,
                                       false);
  print_phase("warm-up", opt.ref_rate, warmup);
  const double ref_s = opt.seconds * kRefShare;
  const PhaseResult ref = run_phase(opt.ref_rate, ref_s, 1, false);
  print_phase("reference", opt.ref_rate, ref);

  if (!opt.trace) {
    // The rate ladder: rung k runs at ref_rate * ladder_factor^k and the
    // reference phase is the first attempt at rung 0.  A rate misses only
    // when two attempts at it miss, so one stall of the host does not
    // end the ladder.  capacity_ops_s is the rate the highest passing
    // attempt achieved: operations completed over its scheduled length.
    double capacity = 0.0;
    bool saturated = true;
    std::string why;
    double rate = opt.ref_rate;
    auto achieved = [](const PhaseResult& phase, double seconds) {
      return static_cast<double>(phase.outcomes.size() - failures(phase)) /
             seconds;
    };
    for (int step = 0; step < opt.ladder_steps && saturated;
         ++step, rate *= opt.ladder_factor) {
      bool passed = step == 0 && rung_passes(opt, ref, why);
      if (passed) {
        capacity = achieved(ref, ref_s);
      }
      for (std::uint64_t attempt = step == 0 ? 1 : 0; attempt < 2 && !passed;
           ++attempt) {
        const PhaseResult rung =
            run_phase(rate, kRungSeconds,
                      100 + 2 * static_cast<std::uint64_t>(step) + attempt,
                      false);
        print_phase(attempt == 0 ? "rung" : "rung-retry", rate, rung);
        passed = rung_passes(opt, rung, why);
        if (passed) {
          capacity = achieved(rung, kRungSeconds);
        }
      }
      saturated = passed;
    }
    std::printf("capacity_ops_s %.1f ops/s (%s)\n", capacity,
                saturated ? "saturated: the top rung still passes"
                          : ("stopped: " + why).c_str());
    const std::vector<double> all = latencies(ref, -1);
    std::printf("all ops: p90 %.4f ms (median of 0.2 s windows), pooled p99 "
                "%.4f ms over %zu samples\n",
                windowed_latency(ref, kWindowMs, 0.90, -1),
                percentile(all, 0.99), all.size());
    report.add("setup_s", median(setup.total_ms) / 1000.0, "s");
    report.add("rss_mb", rss.live_mb(), "MB");
    report.add("p50_ms", percentile(all, 0.5), "ms");

    report.add("capacity_ops_s", capacity, "ops/s");
    // The per-type view (query_p50_ms, record_p99_ms, ...), for people.
    for (int kind = kQuery; kind <= kIngest; ++kind) {
      const std::vector<double> lat = latencies(ref, kind);
      if (!lat.empty()) {
        std::printf("%s_p50_ms %.4f ms  %s_p99_ms %.4f ms  (%zu samples)\n",
                    kKindName[kind], percentile(lat, 0.5), kKindName[kind],
                    percentile(lat, 0.99), lat.size());
      }
    }
  } else {
    // Traced copy of the reference phase, same schedule stream.
    const fbf::telemetry::MetricsSnapshot before =
        setup.service->metrics_snapshot();
    const std::uint64_t checkpoints_before =
        setup.service->durable_store().stats().checkpoints;
    timed->reset();
    ingest_cursor = 0;
    const PhaseResult traced = run_phase(opt.ref_rate, ref_s, 1, true);
    print_phase("traced", opt.ref_rate, traced);
    const fbf::telemetry::MetricsSnapshot after =
        setup.service->metrics_snapshot();
    const TracedRun run{in,
                        *setup.service,
                        setup,
                        traced,
                        spans.collect(),
                        harness.take_captures(),
                        timed->tally(),
                        before,
                        after,
                        checkpoints_before,
                        seed_dir,
                        root + "/replay"};
    report_net_serve_core(run, report);
    report_linkage_storage(run, report);
    add_not_exercised_join(report);
    report.add("load.late_p99_ms", percentile(lateness(ref), 0.99), "ms");
    report.add("trace.overhead_frac",
               percentile(latencies(traced, -1), 0.5) /
                       percentile(latencies(ref, -1), 0.5) -
                   1.0,
               "frac");
    if (!opt.trace_out.empty() && !spans.write(opt.trace_out)) {
      report.fail("could not write spans to " + opt.trace_out);
    }
  }

  harness.stop();
  const std::string kernel = setup.service->corpus().kernel_name();
  check_replies(in, *setup.service, harness.evidence(), report);
  check_recovery(run_dir, setup.service, report);
  print_provenance(opt, kernel, "dense", filesystem_of(run_dir), 1);
  fs::remove_all(root);
  report.print_table();
  report.print_json(attempted, failed);
  return report.failures().empty() ? 0 : 1;
}

}  // namespace fbfbench
