// Direct replays of single layers, timed from outside through each
// layer's public functions.  The traced runs use these to split an
// end-to-end time into per-layer shares.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/corpus.hpp"
#include "core/query_options.hpp"

namespace fbfbench {

/// What the core layer does for a sample of point queries.
struct CoreReplay {
  double query_ms = 0.0;               ///< median corpus().query, solo
  double batch8_ms_per_query = 0.0;    ///< median query_batch(8) / 8
  double filter_ms = 0.0;              ///< mean filter_block sweep per query
  double verify_ms = 0.0;              ///< mean verify time per query
  double candidates_per_query = 0.0;
  double fbf_pass_per_query = 0.0;
  double verify_per_query = 0.0;
  double verify_yield = 0.0;           ///< matches / verify calls
  double filter_bytes_per_query = 0.0; ///< computed: plane bytes swept
  double verify_ns_per_call = 0.0;     ///< metrics::pdl_within per pair
  /// Solo query time per distinct query string (for serve self time).
  std::unordered_map<std::string, double> solo_ms;
};

/// Replays `queries` against `corpus` (solo, in batches of 8, and through
/// a CandidatePipeline built from make_pipeline_config(options) over the
/// corpus values, split into filter and verify).
[[nodiscard]] CoreReplay replay_core(const fbf::core::MatchCorpus& corpus,
                                     const fbf::core::QueryOptions& options,
                                     std::span<const std::string> queries);

/// Adds the core replay's per-layer rows to `report`.
void report_core(Report& report, const CoreReplay& core);

}  // namespace fbfbench
