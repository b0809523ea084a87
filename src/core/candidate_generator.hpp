// Candidate generation: the generate stage of the generate→filter→verify
// cascade (DESIGN.md §14).
//
//   generate(query)  -> sorted unique candidate row ids
//   filter(ids)      -> CandidatePipeline::filter_ids (same FBF predicate,
//                       same counter ladder, gathered plane words through
//                       the same filter_block kernel)
//   verify(pair)     -> unchanged
//
// Two kinds exist.  kDense is the paper's tile scan: every stored row is
// a candidate, and consumers sweep contiguous tiles without materializing
// id lists.  kBlockIndex is BlockIndexGenerator (core/block_index.hpp;
// pigeonhole pieces + deletion neighborhood), which narrows the set.
//
// Soundness contract: for a generator built over stored strings t_0..t_n,
// generate(q) must be a superset of { j : OSA(q, t_j) <= k } — the
// verifier then makes the final decision, so the block index produces
// exactly the dense scan's match set (property-tested).  It may
// over-generate (hash collisions, piece false-sharers); it may never
// under-generate.
//
// This header holds the kind names and the FBF_FORCE_GENERATOR override
// every consumer resolves its ExecPolicy::generator through.
#pragma once

#include <optional>
#include <string_view>

#include "core/exec_policy.hpp"

namespace fbf::core {

/// Stable name for a generator kind (matches the FBF_FORCE_GENERATOR
/// spellings: "dense", "block").
[[nodiscard]] const char* generator_name(GeneratorKind kind) noexcept;

/// Parses a generator name ("dense" / "block" / "block-index").
[[nodiscard]] std::optional<GeneratorKind> generator_from_name(
    std::string_view name) noexcept;

/// Resolves the generator a consumer should use: `requested` unless the
/// FBF_FORCE_GENERATOR environment variable names a valid kind, which
/// then wins (mirroring FBF_FORCE_KERNEL; unknown values warn once on
/// stderr and fall back to `requested`).  Consumers still apply their own
/// soundness gates after this — forcing "block" where block generation
/// would change decisions (no verifier runs, unsupported k) degrades to
/// dense, never to wrong answers.
[[nodiscard]] GeneratorKind select_generator(GeneratorKind requested) noexcept;

}  // namespace fbf::core
