// Shared pieces of the fbfbench binary: options, the metric report,
// percentiles, resident-memory sampling, the in-memory span log and the
// timing decorator around storage::StorageBackend.
//
// Everything here observes the library from outside, through its public
// headers: spans are recorded around calls into each layer, never inside
// it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/backend.hpp"

namespace fbfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

/// Command-line settings.  Workload sizes, rates, limits and ladders come
/// from perfbench/config.json through run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  bool tamper = false;  ///< corrupt one reply: the correctness gate must fail
  std::string work_dir = ".bench_work";
  std::string trace_out;  ///< where the traced run writes its spans

  // Serve workloads.
  std::size_t corpus_n = 0;
  std::size_t store_n = 0;
  std::size_t ingest_pool = 0;
  double mix_record = 0.0;  ///< share of record probes
  double mix_ingest = 0.0;  ///< share of one-record ingests
  double ref_rate = 0.0;    ///< ops/s of the reference-rate phase
  double ladder_factor = 1.1;
  int ladder_steps = 60;
  double limit_query_ms = 25.0;
  double limit_record_ms = 100.0;
  double limit_ingest_ms = 200.0;
  std::size_t senders = 4;  ///< load threads: 4, at most nproc

  // Join workload.
  std::size_t join_n = 0;
  std::size_t threads = 1;  ///< join threads: nproc
};

/// The metrics a run prints.  The last stdout line is the JSON object
/// run.py validates; everything before it is for people.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }
  /// Records a failed correctness check (printed, and makes the run fail).
  void fail(std::string what);
  void print_table() const;
  void print_json(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::vector<std::string> failures_;
};

/// Type-7 percentile of `xs`; 0 for an empty sample.
[[nodiscard]] double percentile(const std::vector<double>& xs, double q);
[[nodiscard]] inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& xs);

/// Current resident set size of this process, in MB.
[[nodiscard]] double rss_mb_now();

/// Resident-memory growth from the moment of construction.  The baseline
/// is taken after returning free heap pages to the system, so memory the
/// run allocates is not hidden by reuse of pages freed earlier.
class RssGrowth {
 public:
  /// `sample_peak` starts a thread that samples RSS every 5 ms and keeps
  /// the peak (1 ms period), for runs whose memory is freed again before
  /// they end.
  explicit RssGrowth(bool sample_peak);
  ~RssGrowth();
  RssGrowth(const RssGrowth&) = delete;
  RssGrowth& operator=(const RssGrowth&) = delete;
  /// Peak sampled RSS minus the baseline (needs sample_peak).
  [[nodiscard]] double peak_mb();
  /// Takes a new baseline (after returning free heap pages) and forgets
  /// the peak.
  void restart();
  /// RSS now, after returning free heap pages, minus the baseline: what
  /// the process still holds.
  [[nodiscard]] double live_mb();

 private:
  double base_mb_ = 0.0;
  std::atomic<double> peak_mb_{0.0};
  std::atomic<bool> running_{true};
  std::thread thread_;
};

/// One traced interval.  Spans of one request share `req` (a hash of the
/// request payload); `parent` is the enclosing span on the same thread.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store: each thread appends to its own buffer (one
/// uncontended lock per span); written out once, when the run ends.
class SpanLog {
 public:
  SpanLog();
  /// Opens a span on this thread; returns its id.
  std::uint64_t begin(const char* name, std::uint64_t req);
  /// Closes the span opened by begin() and records it.
  void end(std::uint64_t id);
  /// Every span recorded so far, sorted by start.
  [[nodiscard]] std::vector<Span> collect() const;
  /// Writes collect() as JSON lines; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Buffer {
    std::mutex mu;
    std::uint32_t thread = 0;
    std::vector<Span> done;
    std::vector<Span> open;  ///< stack of spans begun on this thread
  };
  Buffer& local();
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records a span for the lifetime of the guard (no-op without a log).
class SpanGuard {
 public:
  SpanGuard(SpanLog* log, const char* name, std::uint64_t req)
      : log_(log), id_(log != nullptr ? log->begin(name, req) : 0) {}
  ~SpanGuard() {
    if (log_ != nullptr) {
      log_->end(id_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// What the storage decorator saw.
struct StorageTally {
  std::uint64_t puts = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_appended = 0;
  std::vector<double> put_ms;
  std::vector<double> sync_ms;
};

/// Timing decorator around a StorageBackend: every put / append / sync
/// is timed, counted and (with a span log) recorded as a span.  The
/// service under test gets this in place of its backend in traced runs.
class TimedBackend final : public fbf::storage::StorageBackend {
 public:
  TimedBackend(std::shared_ptr<fbf::storage::StorageBackend> inner,
               SpanLog* spans);

  [[nodiscard]] fbf::util::Status put(const fbf::storage::BlobRef& ref,
                                      std::string_view bytes) override;
  [[nodiscard]] fbf::util::Result<std::string> get(
      const fbf::storage::BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<std::vector<fbf::storage::BlobRef>> list(
      std::string_view prefix) override;
  [[nodiscard]] fbf::util::Status remove(
      const fbf::storage::BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<bool> exists(
      const fbf::storage::BlobRef& ref) override;
  [[nodiscard]] fbf::util::Result<std::unique_ptr<fbf::storage::AppendHandle>>
  open_append(const fbf::storage::BlobRef& ref, bool truncate) override;
  [[nodiscard]] std::string description() const override {
    return "timed:" + inner_->description();
  }

  /// Snapshot of the tallies; reset() zeroes them.
  [[nodiscard]] StorageTally tally() const;
  void reset();

  // Called by the append-handle decorator.
  void note_append(std::size_t bytes);
  void note_sync(double ms);
  [[nodiscard]] SpanLog* spans() const noexcept { return spans_; }

 private:
  std::shared_ptr<fbf::storage::StorageBackend> inner_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  StorageTally tally_;
};

/// Filesystem type name of `path` (ext4, xfs, tmpfs, overlayfs, ...).
[[nodiscard]] std::string filesystem_of(const std::string& path);

/// Prints the provenance line shared by every workload.
void print_provenance(const Options& opt, const std::string& kernel,
                      const std::string& generator, const std::string& fs,
                      std::size_t threads);

int run_serve_workload(const Options& opt);
int run_join_workload(const Options& opt);

}  // namespace fbfbench
