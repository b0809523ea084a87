#include "common.hpp"

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>

#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace fbfbench {

namespace st = fbf::storage;
namespace u = fbf::util;

// --- Report -------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  rows_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(std::move(what));
}

void Report::print_table() const {
  for (const Row& row : rows_) {
    std::printf("  %-32s %14.6g %s\n", row.name.c_str(), row.value,
                row.unit.c_str());
  }
}

void Report::print_json(std::uint64_t attempted, std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += failures_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
    out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + rows_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- statistics ---------------------------------------------------------

double percentile(const std::vector<double>& xs, double q) {
  return u::percentile(xs, q);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

// --- resident memory ----------------------------------------------------

double rss_mb_now() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) {
    return 0.0;
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssGrowth::RssGrowth(bool sample_peak) {
  restart();
  if (!sample_peak) {
    return;
  }
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      const double now = rss_mb_now();
      if (now > peak_mb_.load(std::memory_order_relaxed)) {
        peak_mb_.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

RssGrowth::~RssGrowth() {
  running_.store(false);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RssGrowth::restart() {
  malloc_trim(0);
  base_mb_ = rss_mb_now();
  peak_mb_.store(base_mb_);
}

double RssGrowth::peak_mb() {
  const double now = rss_mb_now();
  if (now > peak_mb_.load()) {
    peak_mb_.store(now);
  }
  return peak_mb_.load() - base_mb_;
}

double RssGrowth::live_mb() {
  malloc_trim(0);
  return rss_mb_now() - base_mb_;
}

// --- spans --------------------------------------------------------------

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanLog::Buffer& SpanLog::local() {
  // One buffer per (thread, log).  Logs live for a whole run, so the
  // cached pointer is keyed by the log's address.
  thread_local std::map<const SpanLog*, Buffer*> cache;
  const auto it = cache.find(this);
  if (it != cache.end()) {
    return *it->second;
  }
  std::lock_guard<std::mutex> lock(buffers_mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  cache.emplace(this, buffer);
  return *buffer;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t req) {
  Buffer& buffer = local();
  Span span;
  span.name = name;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.req = req;
  span.thread = buffer.thread;
  std::lock_guard<std::mutex> lock(buffer.mu);
  span.parent = buffer.open.empty() ? 0 : buffer.open.back().id;
  if (span.req == 0 && !buffer.open.empty()) {
    span.req = buffer.open.back().req;
  }
  span.start_ns = now_ns();
  buffer.open.push_back(span);
  return span.id;
}

void SpanLog::end(std::uint64_t id) {
  const std::int64_t end = now_ns();
  Buffer& buffer = local();
  std::lock_guard<std::mutex> lock(buffer.mu);
  for (auto it = buffer.open.rbegin(); it != buffer.open.rend(); ++it) {
    if (it->id == id) {
      Span span = *it;
      span.end_ns = end;
      buffer.open.erase(std::next(it).base());
      buffer.done.push_back(span);
      return;
    }
  }
}

std::vector<Span> SpanLog::collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(buffers_mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> inner(buffer->mu);
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Span& s : collect()) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"req\": " << s.req
        << ", \"thread\": " << s.thread << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// --- storage decorator --------------------------------------------------

namespace {

class TimedAppendHandle final : public st::AppendHandle {
 public:
  TimedAppendHandle(std::unique_ptr<st::AppendHandle> inner,
                    TimedBackend& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  [[nodiscard]] u::Status append(std::string_view bytes) override {
    const SpanGuard span(owner_.spans(), "storage.append", 0);
    u::Status status = inner_->append(bytes);
    owner_.note_append(bytes.size());
    return status;
  }
  [[nodiscard]] u::Status sync() override {
    const SpanGuard span(owner_.spans(), "storage.sync", 0);
    const auto start = Clock::now();
    u::Status status = inner_->sync();
    owner_.note_sync(ms_since(start));
    return status;
  }
  [[nodiscard]] std::size_t pending_bytes() const noexcept override {
    return inner_->pending_bytes();
  }

 private:
  std::unique_ptr<st::AppendHandle> inner_;
  TimedBackend& owner_;
};

}  // namespace

TimedBackend::TimedBackend(std::shared_ptr<st::StorageBackend> inner,
                           SpanLog* spans)
    : inner_(std::move(inner)), spans_(spans) {}

u::Status TimedBackend::put(const st::BlobRef& ref, std::string_view bytes) {
  const SpanGuard span(spans_, "storage.put", 0);
  const auto start = Clock::now();
  u::Status status = inner_->put(ref, bytes);
  const double ms = ms_since(start);
  std::lock_guard<std::mutex> lock(mu_);
  ++tally_.puts;
  tally_.bytes_put += bytes.size();
  tally_.put_ms.push_back(ms);
  return status;
}

u::Result<std::string> TimedBackend::get(const st::BlobRef& ref) {
  return inner_->get(ref);
}

u::Result<std::vector<st::BlobRef>> TimedBackend::list(
    std::string_view prefix) {
  return inner_->list(prefix);
}

u::Status TimedBackend::remove(const st::BlobRef& ref) {
  return inner_->remove(ref);
}

u::Result<bool> TimedBackend::exists(const st::BlobRef& ref) {
  return inner_->exists(ref);
}

u::Result<std::unique_ptr<st::AppendHandle>> TimedBackend::open_append(
    const st::BlobRef& ref, bool truncate) {
  u::Result<std::unique_ptr<st::AppendHandle>> inner =
      inner_->open_append(ref, truncate);
  if (!inner.ok()) {
    return inner.status();
  }
  return std::unique_ptr<st::AppendHandle>(
      std::make_unique<TimedAppendHandle>(std::move(inner.value()), *this));
}

StorageTally TimedBackend::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

void TimedBackend::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  tally_ = StorageTally{};
}

void TimedBackend::note_append(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  tally_.bytes_appended += bytes;
}

void TimedBackend::note_sync(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  tally_.sync_ms.push_back(ms);
}

// --- provenance ---------------------------------------------------------

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return buf;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string env_or_empty(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

}  // namespace

void print_provenance(const Options& opt, const std::string& kernel,
                      const std::string& generator, const std::string& fs,
                      std::size_t threads) {
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(FBF_TELEMETRY_ENABLED)
  const bool telemetry_compiled = true;
#else
  const bool telemetry_compiled = false;
#endif
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %s, \"cpu_model\": \"%s\", \"cpu_count\": %u, "
      "\"ndebug\": %s, \"fbf_telemetry\": %s, \"telemetry_runtime\": %s, "
      "\"kernel\": \"%s\", \"generator\": \"%s\", "
      "\"FBF_FORCE_KERNEL\": \"%s\", \"FBF_FORCE_GENERATOR\": \"%s\", "
      "\"threads\": %zu, \"senders\": %zu, \"store_fs\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? "true" : "false",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      ndebug ? "true" : "false", telemetry_compiled ? "true" : "false",
      fbf::telemetry::enabled() ? "true" : "false",
      json_escape(kernel).c_str(), json_escape(generator).c_str(),
      json_escape(env_or_empty("FBF_FORCE_KERNEL")).c_str(),
      json_escape(env_or_empty("FBF_FORCE_GENERATOR")).c_str(), threads,
      opt.senders, json_escape(fs).c_str());
}

}  // namespace fbfbench
