// Ablations for the design choices DESIGN.md calls out:
//  1. popcount strategy inside FindDiffBits (Wegner vs POPCNT vs LUT) at
//     the full-join level;
//  2. alphabetic signature width l = 1, 2, 4 — filter selectivity vs
//     signature cost on last names;
//  3. threshold k = 1..3 — how fast the FBF advantage erodes as the
//     filter passes more candidates (generalizes Tables 1 vs 2);
//  4. thread scaling of the parallel join (extension beyond the paper);
//  5. blocking interaction: exhaustive FPDL vs standard blocking vs
//     sorted neighbourhood on the RL engine — candidate counts and recall
//     (the paper's §1 discussion, quantified) — plus hash partition keys
//     hash(LN) % n and hash(SDX(LN)) % n, the recall a hash-partitioned
//     distributed join loses to typos in its partition key.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/find_diff_bits.hpp"
#include "core/match_join.hpp"
#include "core/signature64.hpp"
#include "linkage/engine.hpp"
#include "linkage/person_gen.hpp"
#include "metrics/pdl.hpp"
#include "metrics/qgram.hpp"
#include "metrics/soundex.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

namespace c = fbf::core;
namespace dg = fbf::datagen;
namespace ex = fbf::experiments;
namespace lk = fbf::linkage;
namespace u = fbf::util;

double timed_join(const dg::PairedDataset& dataset, c::JoinConfig join,
                  int repeats, c::JoinStats* out = nullptr) {
  std::vector<double> times;
  for (int rep = 0; rep < repeats; ++rep) {
    auto stats = c::match_strings(dataset.clean, dataset.error, join);
    times.push_back(stats.join_ms);
    if (out != nullptr && rep == repeats - 1) {
      *out = std::move(stats);
    }
  }
  return u::trimmed_mean_drop_minmax(times);
}

void ablate_popcount(const fbf::bench::BenchOptions& opts) {
  std::printf("-- popcount strategy (FBF-only join, SSN) --\n");
  const auto dataset =
      dg::build_paired_dataset(dg::FieldKind::kSsn, opts.config.n,
                               opts.config.seed).value();
  u::Table table({"strategy", "Time ms"});
  const std::pair<const char*, u::PopcountKind> kinds[] = {
      {"Wegner (Alg.6)", u::PopcountKind::kWegner},
      {"POPCNT", u::PopcountKind::kHardware},
      {"byte LUT", u::PopcountKind::kLut}};
  for (const auto& [name, kind] : kinds) {
    auto join = ex::make_join_config(dg::FieldKind::kSsn, c::Method::kFbfOnly,
                                     opts.config);
    join.popcount = kind;
    table.add_row({name, u::fixed(timed_join(dataset, join,
                                             opts.config.repeats),
                                  1)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_alpha_words(const fbf::bench::BenchOptions& opts) {
  std::printf("-- signature width l (FPDL, LN) --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kLastName, opts.config.n, opts.config.seed).value();
  u::Table table({"l", "bytes/sig", "fbf pass", "verify calls", "Time ms"});
  for (const int l : {1, 2, 3, 4}) {
    auto config = opts.config;
    config.alpha_words = l;
    auto join = ex::make_join_config(dg::FieldKind::kLastName,
                                     c::Method::kFpdl, config);
    c::JoinStats stats;
    const double ms = timed_join(dataset, join, config.repeats, &stats);
    table.add_row({std::to_string(l), std::to_string(4 * l),
                   u::with_commas(static_cast<std::int64_t>(stats.fbf_pass)),
                   u::with_commas(static_cast<std::int64_t>(stats.verify_calls)),
                   u::fixed(ms, 1)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_threshold(const fbf::bench::BenchOptions& opts) {
  std::printf("-- threshold k (SSN): FBF selectivity erosion --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kSsn, opts.config.n, opts.config.seed).value();
  u::Table table({"k", "fbf pass", "FPDL ms", "DL ms", "speedup"});
  for (const int k : {1, 2, 3}) {
    auto config = opts.config;
    config.k = k;
    auto fpdl = ex::make_join_config(dg::FieldKind::kSsn, c::Method::kFpdl,
                                     config);
    auto dl = ex::make_join_config(dg::FieldKind::kSsn, c::Method::kDl,
                                   config);
    c::JoinStats stats;
    const double fpdl_ms = timed_join(dataset, fpdl, config.repeats, &stats);
    const double dl_ms = timed_join(dataset, dl, config.repeats);
    table.add_row({std::to_string(k),
                   u::with_commas(static_cast<std::int64_t>(stats.fbf_pass)),
                   u::fixed(fpdl_ms, 1), u::fixed(dl_ms, 1),
                   u::speedup(fpdl_ms > 0 ? dl_ms / fpdl_ms : 0.0)});
  }
  table.render(std::cout);
  std::printf("\n");
}

void ablate_threads(const fbf::bench::BenchOptions& opts) {
  std::printf("-- thread scaling (FPDL, LN) — extension --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kLastName, opts.config.n, opts.config.seed).value();
  u::Table table({"threads", "Time ms", "scaling"});
  double base = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    auto config = opts.config;
    config.threads = threads;
    auto join = ex::make_join_config(dg::FieldKind::kLastName,
                                     c::Method::kFpdl, config);
    const double ms = timed_join(dataset, join, config.repeats);
    if (threads == 1) {
      base = ms;
    }
    table.add_row({std::to_string(threads), u::fixed(ms, 1),
                   u::speedup(ms > 0 ? base / ms : 0.0)});
  }
  table.render(std::cout);
  std::printf("(single-core hosts will show ~1.0 scaling)\n\n");
}

void ablate_blocking(const fbf::bench::BenchOptions& opts) {
  std::printf("-- blocking vs exhaustive FPDL (RL engine) --\n");
  fbf::util::Rng rng(opts.config.seed);
  const std::size_t n = opts.config.n / 2 + 1;
  const auto clean = lk::generate_people(n, rng);
  const auto error = lk::make_error_records(clean, {}, rng);
  lk::LinkConfig config;
  config.comparator = lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  u::Table table({"candidates", "pairs", "TP", "FN", "Time ms"});
  const auto count = [](std::uint64_t v) {
    return u::with_commas(static_cast<std::int64_t>(v));
  };
  const auto add_row = [&](const std::string& name, const lk::LinkStats& s) {
    table.add_row({name, count(s.candidate_pairs), count(s.true_positives),
                   count(s.false_negatives(n)), u::fixed(s.link_ms, 1)});
  };
  const auto block_on = [&](const lk::BlockKeyFn& key) {
    return lk::link_candidates(clean, error,
                               lk::standard_block_pairs(clean, error, key),
                               config);
  };
  add_row("exhaustive", lk::link_exhaustive(clean, error, config));
  add_row("soundex blocks", block_on(lk::block_key_soundex_lastname));
  const auto snm_pairs =
      lk::sorted_neighborhood_pairs(clean, error, lk::sort_key_name, 10);
  add_row("sorted nbhd w=10",
          lk::link_candidates(clean, error, snm_pairs, config));
  // A hash-partitioned distributed join (left and right both scattered by
  // the partition key) evaluates exactly the pairs that share a partition
  // id — i.e. blocking on that id.  These rows measure the recall such a
  // partition key costs; link_elastic broadcasts the right list instead.
  for (const bool soundex : {false, true}) {
    for (const std::uint64_t parts : {2u, 4u, 8u, 16u}) {
      const auto key = [soundex, parts](const lk::PersonRecord& r) {
        const std::string field =
            soundex ? fbf::metrics::soundex(r.last_name) : r.last_name;
        return std::to_string(u::fnv1a64(field) % parts);
      };
      add_row(std::string(soundex ? "hash(SDX(LN)) % " : "hash(LN) % ") +
                  std::to_string(parts),
              block_on(key));
    }
  }
  table.render(std::cout);
  std::printf("(blocking trades recall — FN > 0 — for candidate count; "
              "exhaustive FPDL keeps FN at the comparator's floor)\n");
}

void ablate_filter_family(const fbf::bench::BenchOptions& opts) {
  // FBF vs the classic q-gram count filter vs the 64-bit one-word variant
  // as a PDL pre-filter on last names: filter build time, selectivity,
  // verify calls and total time.  All three are DL-safe (no false
  // negatives); they differ in cost model.
  std::printf("-- filter family: FBF(32x2) vs signature64 vs q-gram (LN, "
              "FPDL-style pipeline) --\n");
  const auto dataset = dg::build_paired_dataset(
      dg::FieldKind::kLastName, opts.config.n, opts.config.seed).value();
  const int k = opts.config.k;
  const std::size_t n = dataset.size();
  u::Table table({"filter", "build ms", "pass", "verify", "matches",
                  "total ms"});

  const auto verify_count_row = [&](const char* name, auto build,
                                    auto pass) {
    const fbf::util::Stopwatch build_timer;
    auto [left, right] = build();
    const double build_ms = build_timer.elapsed_ms();
    const fbf::util::Stopwatch join_timer;
    std::uint64_t passed = 0;
    std::uint64_t verify_calls = 0;
    std::uint64_t matches = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!pass(left, right, i, j)) {
          continue;
        }
        ++passed;
        ++verify_calls;
        if (fbf::metrics::pdl_within(dataset.clean[i], dataset.error[j],
                                     k)) {
          ++matches;
        }
      }
    }
    const double total_ms = join_timer.elapsed_ms();
    table.add_row({name, u::fixed(build_ms, 2),
                   u::with_commas(static_cast<std::int64_t>(passed)),
                   u::with_commas(static_cast<std::int64_t>(verify_calls)),
                   u::with_commas(static_cast<std::int64_t>(matches)),
                   u::fixed(total_ms, 1)});
  };

  verify_count_row(
      "FBF 32x2",
      [&] {
        std::vector<c::Signature> left;
        std::vector<c::Signature> right;
        for (std::size_t i = 0; i < n; ++i) {
          left.push_back(
              c::make_signature(dataset.clean[i], c::FieldClass::kAlpha, 2));
          right.push_back(
              c::make_signature(dataset.error[i], c::FieldClass::kAlpha, 2));
        }
        return std::pair(std::move(left), std::move(right));
      },
      [&](const auto& left, const auto& right, std::size_t i,
          std::size_t j) { return c::fbf_pass(left[i], right[j], k); });

  verify_count_row(
      "signature64",
      [&] {
        std::vector<std::uint64_t> left;
        std::vector<std::uint64_t> right;
        for (std::size_t i = 0; i < n; ++i) {
          left.push_back(c::make_signature64(dataset.clean[i]));
          right.push_back(c::make_signature64(dataset.error[i]));
        }
        return std::pair(std::move(left), std::move(right));
      },
      [&](const auto& left, const auto& right, std::size_t i,
          std::size_t j) { return c::fbf_pass64(left[i], right[j], k); });

  verify_count_row(
      "q-gram q=2 (DL-safe)",
      [&] {
        std::vector<fbf::metrics::QgramProfile> left;
        std::vector<fbf::metrics::QgramProfile> right;
        for (std::size_t i = 0; i < n; ++i) {
          left.emplace_back(dataset.clean[i], 2);
          right.emplace_back(dataset.error[i], 2);
        }
        return std::pair(std::move(left), std::move(right));
      },
      [&](const auto& left, const auto& right, std::size_t i,
          std::size_t j) {
        return fbf::metrics::qgram_filter_pass_dl(
            left[i], dataset.clean[i].size(), right[j],
            dataset.error[j].size(), k);
      });

  table.render(std::cout);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = fbf::bench::parse_options(argc, argv, /*default_n=*/700);
  fbf::bench::print_header("Ablations", opts);
  ablate_popcount(opts);
  ablate_alpha_words(opts);
  ablate_threshold(opts);
  ablate_filter_family(opts);
  ablate_threads(opts);
  ablate_blocking(opts);
  return 0;
}
