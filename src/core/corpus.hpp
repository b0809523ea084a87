// MatchCorpus: the request-level point-lookup engine (DESIGN.md §15).
//
// The join entry points answer "match list S against list T"; a serving
// daemon answers millions of independent "match THIS string against the
// corpus" requests.  MatchCorpus owns the corpus-side pipeline state
// (packed SoA planes via CandidatePipeline) and exposes two query
// shapes:
//
//   query(s)        -> one point lookup (ids + per-query ladder counters)
//   query_batch(qs) -> Q lookups through ONE plane sweep per tile
//                      (filter_block, Q <= kMaxBlockQueries per register
//                      block) with per-query counter attribution
//
// query_batch's per-query results AND counters are byte-identical to
// calling query() once per string (property-tested in test_serve.cpp).
// Candidate generation is always the dense tile sweep here: generator
// selection is a batch-join optimization, and keeping the corpus on one
// generation path is what makes the batched/sequential equivalence
// unconditional.
//
// Both query shapes are const and keep no shared scratch, so any number
// of threads may query one corpus at once; append() must not run
// concurrently with them.  exec.threads only parallelizes the plane
// build inside append().
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_pipeline.hpp"
#include "core/query_options.hpp"

namespace fbf::core {

/// One point lookup's answer.
struct CorpusResult {
  std::vector<std::uint32_t> matches;  ///< corpus ids, ascending
  PipelineCounters counters;
};

class MatchCorpus {
 public:
  explicit MatchCorpus(const QueryOptions& options,
                       std::span<const std::string> values = {});

  /// Appends corpus strings (append-only, incremental plane growth).
  void append(std::span<const std::string> values);

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::string& value(std::size_t i) const noexcept {
    return values_[i];
  }
  [[nodiscard]] std::span<const std::string> values() const noexcept {
    return values_;
  }
  [[nodiscard]] const QueryOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const char* kernel_name() const noexcept {
    return pipeline_.kernel_name();
  }

  /// One point lookup: every corpus id within the method's match
  /// predicate, plus the full ladder counters the lookup earned.
  [[nodiscard]] CorpusResult query(std::string_view query) const;

  /// Batched lookups: all queries sweep each corpus tile in one
  /// filter_block call (Q <= kMaxBlockQueries per register block).
  /// result[i] — matches and counters — is byte-identical to
  /// query(queries[i]) run alone.
  [[nodiscard]] std::vector<CorpusResult> query_batch(
      std::span<const std::string> queries) const;

 private:
  QueryOptions options_;
  CandidatePipeline pipeline_;
  std::vector<std::string> values_;
};

}  // namespace fbf::core
