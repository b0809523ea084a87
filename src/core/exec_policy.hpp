// Execution policy: the knobs that decide *how* an operation runs, not
// *what* it computes.  LinkConfig, QueryOptions, LinkageContext and
// EntityStore each take one ExecPolicy.  Results are policy-independent
// by contract: any (use_pipeline, threads, generator) combination
// produces identical decisions and counters — the equivalence property
// tests pin that.
#pragma once

#include <cstddef>

namespace fbf::core {

/// Candidate-generation strategy for the generate→filter→verify cascade
/// (DESIGN.md §14).  kDense is the reference: every stored row is a
/// candidate and the filter stage sweeps contiguous tiles.  kBlockIndex
/// probes a pigeonhole block / deletion-neighborhood inverted index
/// (core/block_index.hpp) so candidate generation is sub-quadratic; it
/// only engages where it is provably sound (a real verifier runs and
/// BlockIndexGenerator::supported(k) holds) and falls back to kDense
/// otherwise — decisions are generator-independent by contract.
enum class GeneratorKind {
  kDense,
  kBlockIndex,
};

struct ExecPolicy {
  /// Route scoring through the batched filter pipeline (RecordFilterBank
  /// / CandidatePipeline tile sweeps).  false = the per-pair scalar loop,
  /// kept as the equivalence baseline.
  bool use_pipeline = true;
  /// Worker threads for the parallel portions; 1 = sequential.
  std::size_t threads = 1;
  /// Candidate generation strategy (overridable via FBF_FORCE_GENERATOR;
  /// see core/candidate_generator.hpp select_generator).
  GeneratorKind generator = GeneratorKind::kDense;
};

}  // namespace fbf::core
