// Fault-tolerant ingest walkthrough — the durability layer end to end:
//
//   1. ingest nightly batches through DurableEntityStore on a
//      LocalDirBackend (write-ahead journal + incremental checkpoint
//      segments named by a manifest),
//   2. "crash" mid-run and recover exactly the pre-crash store from
//      the manifest's segments + journal replay,
//   3. re-run with injected storage faults (checkpoint corruption) to
//      show the failure paths degrade instead of losing data.
//
//   build/examples/fault_tolerant_ingest [--n 400] [--batches 6]
//                                        [--checkpoint-every 2]
//                                        [--crash-after 4] [--seed 42]
//                                        [--dir /tmp]
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "linkage/incremental.hpp"
#include "linkage/person_gen.hpp"
#include "linkage/snapshot.hpp"
#include "storage/local_dir.hpp"
#include "util/cli.hpp"
#include "util/fault.hpp"

int main(int argc, char** argv) {
  namespace lk = fbf::linkage;
  namespace st = fbf::storage;
  namespace u = fbf::util;
  namespace fs = std::filesystem;
  const u::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 400));
  const auto n_batches = static_cast<std::size_t>(args.get_int("batches", 6));
  const auto checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 2));
  auto crash_after =
      static_cast<std::size_t>(args.get_int("crash-after", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string dir = args.get_string("dir", "/tmp");
  crash_after = std::min(crash_after, n_batches);

  // Batches of new + returning (typo-ed) records, as in a nightly feed.
  u::Rng rng(seed);
  const auto master = lk::generate_people(n, rng);
  std::vector<std::vector<lk::PersonRecord>> batches(n_batches);
  std::uint64_t next_id = n;
  for (auto& batch : batches) {
    for (std::size_t r = 0; r < n / 8 + 1; ++r) {
      if (rng.chance(0.5)) {
        const auto src = static_cast<std::size_t>(rng.below(master.size()));
        auto copies = lk::make_error_records(
            std::vector<lk::PersonRecord>{master[src]}, {}, rng);
        batch.push_back(std::move(copies.front()));
      } else {
        auto fresh = lk::generate_people(1, rng);
        fresh.front().id = next_id++;
        batch.push_back(std::move(fresh.front()));
      }
    }
  }

  const auto comparator =
      lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
  const std::string store_dir = dir + "/fbf_example_store";
  fs::remove_all(store_dir);
  const auto backend = [&] {
    return std::make_shared<st::LocalDirBackend>(store_dir);
  };
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = checkpoint_every;

  // --- 1. Durable ingest, crashing after `crash_after` batches. -------
  std::printf("=== durable ingest (checkpoint every %zu batches, %s) ===\n",
              checkpoint_every, backend()->description().c_str());
  {
    lk::DurableEntityStore store(comparator, backend(), policy);
    if (!store.ingest(master).ok()) {
      std::fprintf(stderr, "master ingest failed\n");
      return 1;
    }
    for (std::size_t b = 0; b < crash_after; ++b) {
      if (!store.ingest(batches[b]).ok()) {
        std::fprintf(stderr, "batch %zu ingest failed\n", b);
        return 1;
      }
      std::printf("batch %zu ingested: %zu records, %zu entities\n", b,
                  store.store().size(), store.store().entity_count());
    }
    std::printf("-- simulated crash after %zu of %zu batches --\n",
                crash_after, n_batches);
    std::printf("checkpoints: %llu (%zu segments in the manifest), journal "
                "syncs: %llu\n",
                static_cast<unsigned long long>(store.stats().checkpoints),
                store.manifest().segments.size(),
                static_cast<unsigned long long>(store.stats().journal_syncs));
    store.simulate_crash();  // only the backend's blobs survive
  }

  // --- 2. Recovery: manifest -> segments -> journal replay. ----------
  lk::DurableEntityStore recovered(comparator, backend(), policy);
  const auto report = recovered.recover();
  if (!report.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("\n=== recovery ===\n");
  std::printf("checkpoint segments applied: %zu\n",
              report.value().segments_applied);
  std::printf("journal batches replayed: %llu (tail bytes dropped: %zu)\n",
              static_cast<unsigned long long>(
                  report.value().journal_batches_replayed),
              report.value().dropped_tail_bytes);
  for (std::size_t b = crash_after; b < n_batches; ++b) {
    if (!recovered.ingest(batches[b]).ok()) {
      std::fprintf(stderr, "post-recovery batch %zu failed\n", b);
      return 1;
    }
  }

  lk::EntityStore uninterrupted(comparator);
  uninterrupted.ingest(master);
  for (const auto& batch : batches) {
    uninterrupted.ingest(batch);
  }
  std::printf("entities after resume: %zu (uninterrupted run: %zu) -> %s\n",
              recovered.store().entity_count(),
              uninterrupted.entity_count(),
              recovered.store().entity_count() ==
                      uninterrupted.entity_count()
                  ? "MATCH"
                  : "MISMATCH");

  // --- 3. Injected storage faults. ------------------------------------
  std::printf("\n=== injected faults ===\n");
  fs::remove_all(store_dir);
  u::FaultConfig faults;
  faults.seed = seed;
  faults.snapshot_corrupt_rate = 1.0;  // every checkpoint write is damaged
  u::FaultInjector injector(faults);
  {
    lk::DurableEntityStore store(
        comparator, std::make_shared<st::LocalDirBackend>(store_dir, &injector),
        policy);
    (void)store.ingest(master);
    for (std::size_t b = 0; b < crash_after; ++b) {
      (void)store.ingest(batches[b]);
    }
    std::printf("checkpoint attempts failed (corruption caught before "
                "install): %llu\n",
                static_cast<unsigned long long>(store.checkpoint_failures()));
    const bool chain_on_disk =
        store.backend()->exists(policy.manifest_ref()).value();
    std::printf("corrupt checkpoint chain on disk: %s\n",
                chain_on_disk ? "YES (bug!)" : "no");
  }
  lk::DurableEntityStore after_faults(comparator, backend(), policy);
  const auto faulty_report = after_faults.recover();
  if (faulty_report.ok()) {
    std::printf("recovery without a checkpoint replayed %llu batches from "
                "the journal -> %zu entities\n",
                static_cast<unsigned long long>(
                    faulty_report.value().journal_batches_replayed),
                after_faults.store().entity_count());
  }

  std::error_code ec;
  fs::remove_all(store_dir, ec);
  return 0;
}
