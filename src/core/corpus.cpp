#include "core/corpus.hpp"

#include <algorithm>
#include <array>

namespace fbf::core {

namespace {

/// Corpus sweep tile width.  Matches the join's kTileCols so the serving
/// path hits the kernel with the same working-set shape the join benches
/// tuned; any multiple of 64 preserves the equivalence contract.
constexpr std::size_t kCorpusTile = 256;
constexpr std::size_t kTileWords = CandidatePipeline::bitmap_words(kCorpusTile);

}  // namespace

MatchCorpus::MatchCorpus(const QueryOptions& options,
                         std::span<const std::string> values)
    : options_(options), pipeline_(make_pipeline_config(options)) {
  append(values);
}

void MatchCorpus::append(std::span<const std::string> values) {
  pipeline_.append(values, options_.exec.threads);
  values_.insert(values_.end(), values.begin(), values.end());
}

CorpusResult MatchCorpus::query(std::string_view query) const {
  CorpusResult result;
  const CandidatePipeline::Query q = pipeline_.make_query(query);
  std::array<std::uint64_t, kTileWords> bitmap;
  for (std::size_t begin = 0; begin < values_.size(); begin += kCorpusTile) {
    const std::size_t end = std::min(values_.size(), begin + kCorpusTile);
    bitmap.fill(0);
    pipeline_.filter(q, begin, end, /*eligible=*/nullptr, bitmap.data(),
                     result.counters);
    CandidatePipeline::for_each_survivor(
        bitmap.data(), end - begin, [&](std::size_t lane) {
          const std::size_t id = begin + lane;
          if (pipeline_.verify(query, values_[id], result.counters)) {
            result.matches.push_back(static_cast<std::uint32_t>(id));
          }
        });
  }
  return result;
}

std::vector<CorpusResult> MatchCorpus::query_batch(
    std::span<const std::string> queries) const {
  std::vector<CorpusResult> results(queries.size());
  std::vector<CandidatePipeline::Query> block;
  std::vector<PipelineCounters> block_counters;
  std::vector<std::uint64_t> bitmaps;
  // Register blocks of kMaxBlockQueries queries; each block sweeps the
  // planes tile by tile through one filter_block call per tile, then each
  // query drains its own bitmap row.  Per-query counters come from the
  // attributing filter_block overload, so results[i] is byte-identical to
  // query(queries[i]) run alone.
  for (std::size_t base = 0; base < queries.size();
       base += kMaxBlockQueries) {
    const std::size_t q_count =
        std::min(queries.size() - base, kMaxBlockQueries);
    block.clear();
    for (std::size_t i = 0; i < q_count; ++i) {
      block.push_back(pipeline_.make_query(queries[base + i]));
    }
    block_counters.assign(q_count, PipelineCounters{});
    bitmaps.assign(q_count * kTileWords, 0);
    for (std::size_t begin = 0; begin < values_.size();
         begin += kCorpusTile) {
      const std::size_t end = std::min(values_.size(), begin + kCorpusTile);
      std::fill(bitmaps.begin(), bitmaps.end(), 0);
      pipeline_.filter_block(block, begin, end, /*eligible=*/nullptr,
                             bitmaps.data(), kTileWords,
                             std::span<PipelineCounters>(block_counters));
      for (std::size_t i = 0; i < q_count; ++i) {
        CorpusResult& out = results[base + i];
        CandidatePipeline::for_each_survivor(
            bitmaps.data() + i * kTileWords, end - begin,
            [&](std::size_t lane) {
              const std::size_t id = begin + lane;
              if (pipeline_.verify(queries[base + i], values_[id],
                                   block_counters[i])) {
                out.matches.push_back(static_cast<std::uint32_t>(id));
              }
            });
      }
    }
    for (std::size_t i = 0; i < q_count; ++i) {
      results[base + i].counters = block_counters[i];
    }
  }
  return results;
}

}  // namespace fbf::core
