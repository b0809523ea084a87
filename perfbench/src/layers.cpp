#include "layers.hpp"

#include <algorithm>
#include <utility>

#include "core/candidate_pipeline.hpp"
#include "core/packed_signature_store.hpp"
#include "metrics/pdl.hpp"

namespace fbfbench {

namespace c = fbf::core;

namespace {

/// Lanes per filter_block call in the filter/verify split.
constexpr std::size_t kReplayTile = 4096;

}  // namespace

CoreReplay replay_core(const c::MatchCorpus& corpus,
                       const c::QueryOptions& options,
                       std::span<const std::string> queries) {
  CoreReplay out;
  if (queries.empty() || corpus.size() == 0) {
    return out;
  }
  // Solo queries: time and ladder counters.
  std::vector<double> solo;
  std::uint64_t candidates = 0;
  std::uint64_t fbf_pass = 0;
  std::uint64_t verify_calls = 0;
  std::uint64_t matches = 0;
  for (const std::string& q : queries) {
    const auto start = Clock::now();
    const c::CorpusResult result = corpus.query(q);
    const double ms = ms_since(start);
    solo.push_back(ms);
    out.solo_ms.emplace(q, ms);
    candidates += result.counters.candidates_generated;
    fbf_pass += result.counters.fbf_pass;
    verify_calls += result.counters.verify_calls;
    matches += result.matches.size();
  }
  const double n = static_cast<double>(queries.size());
  out.query_ms = median(solo);
  out.candidates_per_query = static_cast<double>(candidates) / n;
  out.fbf_pass_per_query = static_cast<double>(fbf_pass) / n;
  out.verify_per_query = static_cast<double>(verify_calls) / n;
  out.verify_yield = verify_calls == 0
                         ? 0.0
                         : static_cast<double>(matches) /
                               static_cast<double>(verify_calls);

  // Coalesced shape: register blocks of 8.
  std::vector<double> batched;
  for (std::size_t base = 0; base + c::kMaxBlockQueries <= queries.size();
       base += c::kMaxBlockQueries) {
    const auto block = queries.subspan(base, c::kMaxBlockQueries);
    const auto start = Clock::now();
    const auto results = corpus.query_batch(block);
    batched.push_back(ms_since(start) / static_cast<double>(block.size()));
  }
  out.batch8_ms_per_query = median(batched);

  // Filter vs verify on a pipeline the benchmark builds itself.
  const c::CandidatePipeline pipeline(c::make_pipeline_config(options),
                                      corpus.values());
  const std::size_t size = pipeline.size();
  std::vector<std::uint64_t> bitmap(
      c::CandidatePipeline::bitmap_words(kReplayTile));
  std::vector<std::pair<std::string_view, std::string_view>> survivors;
  double filter_ms = 0.0;
  double verify_ms = 0.0;
  for (const std::string& text : queries) {
    const c::CandidatePipeline::Query q = pipeline.make_query(text);
    const std::span<const c::CandidatePipeline::Query> one(&q, 1);
    c::PipelineCounters counters;
    for (std::size_t begin = 0; begin < size; begin += kReplayTile) {
      const std::size_t end = std::min(size, begin + kReplayTile);
      std::fill(bitmap.begin(), bitmap.end(), 0);
      const auto start = Clock::now();
      pipeline.filter_block(one, begin, end, nullptr, bitmap.data(),
                            bitmap.size(), counters);
      filter_ms += ms_since(start);
      const auto verify_start = Clock::now();
      c::CandidatePipeline::for_each_survivor(
          bitmap.data(), end - begin, [&](std::size_t lane) {
            const std::string& candidate = corpus.value(begin + lane);
            (void)pipeline.verify(text, candidate, counters);
            survivors.emplace_back(text, candidate);
          });
      verify_ms += ms_since(verify_start);
    }
  }
  out.filter_ms = filter_ms / n;
  out.verify_ms = verify_ms / n;
  out.filter_bytes_per_query = static_cast<double>(
      c::packed_words(options.field_class, options.alpha_words) *
      sizeof(std::uint64_t) * size);

  // The verifier alone, on the recorded survivor pairs.
  if (!survivors.empty()) {
    // pdl_within lives in another library, so the calls cannot be elided.
    std::size_t calls = 0;
    const auto start = Clock::now();
    while (ms_since(start) < 20.0 || calls < survivors.size()) {
      for (const auto& [a, b] : survivors) {
        (void)fbf::metrics::pdl_within(a, b, options.k);
      }
      calls += survivors.size();
    }
    out.verify_ns_per_call = ms_since(start) * 1e6 / static_cast<double>(calls);
  }
  return out;
}

void report_core(Report& report, const CoreReplay& core) {
  report.add("core.query_ms", core.query_ms, "ms");
  report.add("core.batch8_ms_per_query", core.batch8_ms_per_query, "ms");
  report.add("core.filter_ms", core.filter_ms, "ms");
  report.add("core.verify_ms", core.verify_ms, "ms");
  report.add("core.candidates_per_query", core.candidates_per_query, "count");
  report.add("core.fbf_pass_per_query", core.fbf_pass_per_query, "count");
  report.add("core.verify_per_query", core.verify_per_query, "count");
  report.add("core.verify_yield", core.verify_yield, "ratio");
  report.add("core.filter_bytes_per_query", core.filter_bytes_per_query, "B");
  report.add("metrics.verify_ns_per_call", core.verify_ns_per_call, "ns");
}

}  // namespace fbfbench
