// fbfbench: the repository benchmark's measuring binary.
//
//   fbfbench --workload point-1m|mixed-50k|join-100k --seed N --seconds S
//            --trace 0|1 [--tamper] [sizes, rates, limits ...]
//
// perfbench/run.py builds this binary, passes the workload settings from
// perfbench/config.json and validates the result line.  Exit codes: 0 a
// valid run, 1 a failed correctness check, 2 bad arguments or a build
// that must not record numbers (NDEBUG unset).
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const fbf::util::CliArgs args(argc, argv);
  fbfbench::Options opt;
  opt.workload = args.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.tamper = args.get_bool("tamper");
  opt.work_dir = args.get_string("work-dir", ".bench_work");
  opt.trace_out = args.get_string("trace-out", "");
  opt.corpus_n = static_cast<std::size_t>(args.get_int("corpus-n", 0));
  opt.store_n = static_cast<std::size_t>(args.get_int("store-n", 0));
  opt.ingest_pool = static_cast<std::size_t>(args.get_int("ingest-pool", 0));
  opt.mix_record = args.get_double("mix-record", 0.0);
  opt.mix_ingest = args.get_double("mix-ingest", 0.0);
  opt.ref_rate = args.get_double("ref-rate", 0.0);
  opt.ladder_factor = args.get_double("ladder-factor", opt.ladder_factor);
  opt.ladder_steps =
      static_cast<int>(args.get_int("ladder-steps", opt.ladder_steps));
  opt.limit_query_ms = args.get_double("limit-query-ms", opt.limit_query_ms);
  opt.limit_record_ms =
      args.get_double("limit-record-ms", opt.limit_record_ms);
  opt.limit_ingest_ms =
      args.get_double("limit-ingest-ms", opt.limit_ingest_ms);
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  opt.senders = std::min<std::size_t>(4, cpus);
  opt.join_n = static_cast<std::size_t>(args.get_int("join-n", 0));
  opt.threads = cpus;
  if (const auto unknown = args.unknown_flags(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }
#if !defined(NDEBUG)
  std::fprintf(stderr,
               "refusing to record: this build lacks NDEBUG (not an "
               "optimized build)\n");
  return 2;
#endif
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", opt.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (opt.workload == "point-1m" || opt.workload == "mixed-50k") {
    if (opt.corpus_n == 0 || opt.ref_rate <= 0.0) {
      std::fprintf(stderr, "serve workloads need --corpus-n and --ref-rate\n");
      return 2;
    }
    return fbfbench::run_serve_workload(opt);
  }
  if (opt.workload == "join-100k") {
    if (opt.join_n == 0) {
      std::fprintf(stderr, "the join workload needs --join-n\n");
      return 2;
    }
    return fbfbench::run_join_workload(opt);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
