// join-100k: the paper's batch dedup.  core::match_strings self-joins
// clean x error for LN (alpha) and ADDR (alphanumeric) at n = 100k, with
// JoinConfig defaults apart from threads and field_class.
//
// One operation is one dedup pass: LN then ADDR.  Passes repeat until
// --seconds elapse; setup_s is the median pass's Gen row (signature
// generation plus any index build, summed over both fields).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/match_join.hpp"
#include "datagen/dataset.hpp"
#include "layers.hpp"
#include "util/rng.hpp"

namespace fbfbench {

namespace c = fbf::core;
namespace d = fbf::datagen;

namespace {

/// Left rows compared against the per-pair baseline.
constexpr std::size_t kSampleRows = 256;

struct Field {
  const char* name;  ///< ln / addr
  d::PairedDataset data;
  c::JoinConfig config;
};

struct FieldRun {
  double wall_ms = 0.0;
  c::JoinStats stats;
};

struct Pass {
  double wall_ms = 0.0;  ///< both fields
  double gen_ms = 0.0;   ///< summed Gen row
  double rss_mb = 0.0;   ///< peak resident-memory growth during the pass
  std::vector<FieldRun> fields;
};

Pass run_pass(const std::vector<Field>& fields, SpanLog* spans,
              RssGrowth& rss) {
  Pass pass;
  rss.restart();
  const SpanGuard pass_span(spans, "join.pass", 0);
  for (const Field& field : fields) {
    const SpanGuard span(spans, "core.match_strings", 0);
    const auto start = Clock::now();
    FieldRun run;
    run.stats = c::match_strings(field.data.clean, field.data.error,
                                 field.config);
    run.wall_ms = ms_since(start);
    pass.wall_ms += run.wall_ms;
    pass.gen_ms += run.stats.signature_gen_ms;
    pass.fields.push_back(std::move(run));
  }
  pass.rss_mb = rss.peak_mb();
  return pass;
}

/// Passes until `budget_s` elapse (at least `min_passes`).
std::vector<Pass> run_passes(const std::vector<Field>& fields, double budget_s,
                             std::size_t min_passes, SpanLog* spans,
                             RssGrowth& rss) {
  std::vector<Pass> passes;
  const auto start = Clock::now();
  while (passes.size() < min_passes || ms_since(start) < budget_s * 1000.0) {
    passes.push_back(run_pass(fields, spans, rss));
  }
  return passes;
}

std::vector<double> pass_values(const std::vector<Pass>& passes,
                                double Pass::*member) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    out.push_back(p.*member);
  }
  return out;
}

/// type2 == 0 on every pass: every error[i] found its clean[i].  Returns
/// the passes that missed true pairs (failed operations).
std::uint64_t check_passes(const std::vector<Field>& fields,
                           const std::vector<Pass>& passes, Report& report) {
  std::uint64_t failed = 0;
  for (const Pass& pass : passes) {
    bool missed = false;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::uint64_t type2 =
          pass.fields[f].stats.type2(fields[f].data.size());
      if (type2 != 0) {
        report.fail(std::string(fields[f].name) + " join missed " +
                    std::to_string(type2) + " true pairs (type2 != 0)");
        missed = true;
      }
    }
    failed += missed ? 1 : 0;
  }
  return failed;
}

/// A seeded sample of left rows must give the same match pairs through
/// the configured join as through the per-pair baseline (packed = false).
void check_sample(const std::vector<Field>& fields, const Options& opt,
                  Report& report) {
  for (const Field& field : fields) {
    fbf::util::Rng rng(opt.seed ^ 0x5A3Full);
    const std::size_t n = field.data.size();
    std::vector<std::uint32_t> rows;
    for (std::size_t i = 0; i < std::min(kSampleRows, n); ++i) {
      rows.push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
    std::vector<std::string> left;
    for (const std::uint32_t r : rows) {
      left.push_back(field.data.clean[r]);
    }
    c::JoinConfig config = field.config;
    config.collect_matches = true;
    c::JoinStats fast = c::match_strings(left, field.data.error, config);
    config.packed = false;
    const c::JoinStats baseline =
        c::match_strings(left, field.data.error, config);
    if (opt.tamper && !fast.match_pairs.empty()) {
      fast.match_pairs.erase(fast.match_pairs.begin());
    }
    if (fast.match_pairs != baseline.match_pairs) {
      report.fail(std::string(field.name) +
                  " sample join differs from the per-pair baseline");
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::pair<std::uint32_t, std::uint32_t> truth{
          static_cast<std::uint32_t>(i), rows[i]};
      if (!std::binary_search(fast.match_pairs.begin(),
                              fast.match_pairs.end(), truth)) {
        report.fail(std::string(field.name) + " sample row " +
                    std::to_string(rows[i]) + " lost its true match");
        break;
      }
    }
  }
}

/// Per-layer rows the join does not exercise (no server, no store).
void add_not_exercised(Report& report) {
  static constexpr std::pair<const char*, const char*> kRows[] = {
      {"net.rtt_self_p50_ms", "ms"},
      {"net.rtt_self_p99_ms", "ms"},
      {"net.frame_codec_us", "us"},
      {"net.bytes_per_op", "B"},
      {"net.attempts_per_op", "count"},
      {"serve.handle_query_p50_ms", "ms"},
      {"serve.handle_query_p99_ms", "ms"},
      {"serve.handle_record_p50_ms", "ms"},
      {"serve.handle_record_p99_ms", "ms"},
      {"serve.handle_ingest_p50_ms", "ms"},
      {"serve.handle_ingest_p99_ms", "ms"},
      {"serve.self_p50_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.rejected", "count"},
      {"linkage.probe_ms", "ms"},
      {"linkage.comparisons_per_probe", "count"},
      {"linkage.verify_per_probe", "count"},
      {"linkage.ingest_match_ms", "ms"},
      {"storage.sync_p50_ms", "ms"},
      {"storage.sync_p99_ms", "ms"},
      {"storage.syncs_per_ingest", "count"},
      {"storage.put_ms", "ms"},
      {"storage.checkpoints", "count"},
      {"storage.write_amp", "ratio"},
      {"storage.recover_s", "s"},
      {"load.late_p99_ms", "ms"},
  };
  for (const auto& [name, unit] : kRows) {
    report.add(name, 0.0, unit);
  }
}

}  // namespace

int run_join_workload(const Options& opt) {
  // Inputs, outside every timed interval.
  std::vector<Field> fields;
  const std::pair<const char*, d::FieldKind> kinds[] = {
      {"ln", d::FieldKind::kLastName}, {"addr", d::FieldKind::kAddress}};
  for (std::size_t f = 0; f < 2; ++f) {
    auto built = d::build_paired_dataset(kinds[f].second, opt.join_n,
                                         opt.seed * 2 + f);
    if (!built.ok()) {
      std::fprintf(stderr, "datagen: %s\n",
                   built.status().to_string().c_str());
      return 2;
    }
    Field field{kinds[f].first, std::move(built.value()), {}};
    field.config.threads = opt.threads;
    field.config.field_class = d::field_class_of(kinds[f].second);
    fields.push_back(std::move(field));
  }
  std::printf("join-100k: n=%zu per field, threads=%zu\n", opt.join_n,
              opt.threads);

  Report report;
  RssGrowth rss(/*sample_peak=*/true);
  SpanLog spans;
  std::vector<Pass> passes;
  std::vector<Pass> traced;
  if (!opt.trace) {
    passes = run_passes(fields, opt.seconds, 3, nullptr, rss);
  } else {
    passes = run_passes(fields, opt.seconds * 0.4, 2, nullptr, rss);
    traced = run_passes(fields, opt.seconds * 0.4, 2, &spans, rss);
  }
  const std::uint64_t failed = check_passes(fields, passes, report) +
                               check_passes(fields, traced, report);
  check_sample(fields, opt, report);

  const Pass& first = passes.front();
  print_provenance(opt, first.fields[0].stats.kernel,
                   std::string(first.fields[0].stats.generator) + "/" +
                       first.fields[1].stats.generator,
                   "n/a", opt.threads);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    std::vector<double> wall;
    for (const Pass& p : passes) {
      wall.push_back(p.fields[f].wall_ms);
    }
    std::printf("join_%s_s %.4f s  (kernel %s, generator %s, %zu passes)\n",
                fields[f].name, median(wall) / 1000.0,
                first.fields[f].stats.kernel, first.fields[f].stats.generator,
                passes.size());
  }

  const std::vector<double> wall = pass_values(passes, &Pass::wall_ms);
  std::printf("pass p90 %.4f ms over %zu passes\n", percentile(wall, 0.90),
              wall.size());
  if (!opt.trace) {
    report.add("setup_s", median(pass_values(passes, &Pass::gen_ms)) / 1000.0,
               "s");
    // Mean, not median: a pass's peak lands on one of a few allocator
    // steps, and the mean over passes smooths them.
    report.add("rss_mb", mean(pass_values(passes, &Pass::rss_mb)), "MB");
    report.add("p50_ms", median(wall), "ms");
    report.add("capacity_ops_s",
               2.0 * static_cast<double>(opt.join_n) / (median(wall) / 1000.0),
               "ops/s");
  } else {
    const std::vector<double> traced_wall = pass_values(traced, &Pass::wall_ms);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      std::vector<double> gen;
      std::vector<double> pair;
      for (const Pass& p : traced) {
        gen.push_back(p.fields[f].stats.signature_gen_ms);
        pair.push_back(p.fields[f].stats.join_ms);
      }
      const c::JoinStats& stats = traced.front().fields[f].stats;
      const std::string prefix = std::string("core.join.") + fields[f].name;
      report.add(prefix + ".gen_ms", median(gen), "ms");
      report.add(prefix + ".pair_ms", median(pair), "ms");
      report.add(prefix + ".candidates",
                 static_cast<double>(stats.candidates_generated), "count");
      report.add(prefix + ".verify_calls",
                 static_cast<double>(stats.verify_calls), "count");
      report.add(prefix + ".selectivity",
                 stats.pairs == 0 ? 0.0
                                  : static_cast<double>(
                                        stats.candidates_generated) /
                                        static_cast<double>(stats.pairs),
                 "ratio");
    }
    // Point-query view of the LN core: the join's right side as a corpus.
    c::QueryOptions query_options;
    query_options.field_class = fields[0].config.field_class;
    const auto build_start = Clock::now();
    const c::MatchCorpus corpus(query_options, fields[0].data.error);
    report.add("core.build_s", ms_since(build_start) / 1000.0, "s");
    std::vector<std::string> sample;
    fbf::util::Rng rng(opt.seed ^ 0xC0DEull);
    for (std::size_t i = 0; i < 64; ++i) {
      sample.push_back(fields[0].data.clean[rng.below(fields[0].data.size())]);
    }
    report_core(report, replay_core(corpus, query_options, sample));
    add_not_exercised(report);
    // Unattributed: pass wall time that neither the Gen row nor the pair
    // evaluation covers.
    std::vector<double> gap;
    for (const Pass& p : traced) {
      double covered = 0.0;
      for (const FieldRun& run : p.fields) {
        covered += run.stats.signature_gen_ms + run.stats.join_ms;
      }
      gap.push_back(p.wall_ms - covered);
    }
    report.add("unattributed_ms", median(gap), "ms");
    report.add("trace.overhead_frac", median(traced_wall) / median(wall) - 1.0,
               "frac");
    if (!opt.trace_out.empty() && !spans.write(opt.trace_out)) {
      report.fail("could not write spans to " + opt.trace_out);
    }
  }
  report.print_table();
  const std::uint64_t attempted = passes.size() + traced.size();
  report.print_json(attempted, failed);
  return report.failures().empty() ? 0 : 1;
}

}  // namespace fbfbench
