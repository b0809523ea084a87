// Durability property tests for the checkpoint segment chain and the
// group-commit journal, run against MemObjectBackend (the reference
// backend: byte surgery via poke(), kill -9 via abandoned handles).
//
// The core property (acceptance): for a kill at ANY byte of the
// manifest, a segment or the journal, recovery either rebuilds a state
// with entity ids byte-identical to an uninterrupted run over the
// surviving prefix (journal cuts), or detects the damage outright
// (manifest/segment cuts) — never a silently wrong store.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "linkage/person_gen.hpp"
#include "linkage/record_codec.hpp"
#include "linkage/snapshot.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace {

namespace lk = fbf::linkage;
namespace st = fbf::storage;
namespace u = fbf::util;
using fbf::util::Rng;

lk::ComparatorConfig fpdl_config() {
  return lk::make_point_threshold_config(lk::FieldStrategy::kFpdl);
}

std::vector<std::vector<lk::PersonRecord>> make_batches(
    std::vector<std::size_t> sizes, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<lk::PersonRecord>> batches;
  batches.reserve(sizes.size());
  std::uint64_t next_id = 0;
  for (const std::size_t size : sizes) {
    auto batch = lk::generate_people(size, rng);
    for (auto& r : batch) {
      r.id = next_id++;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void expect_stores_equal(const lk::EntityStore& a, const lk::EntityStore& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.entity_count(), b.entity_count());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entity_ids()[i], b.entity_ids()[i]) << "record " << i;
    EXPECT_EQ(a.records()[i].id, b.records()[i].id) << "record " << i;
  }
}

/// The uninterrupted reference: first `n` batches through a plain store.
lk::EntityStore reference_store(
    const std::vector<std::vector<lk::PersonRecord>>& batches, std::size_t n) {
  lk::EntityStore store(fpdl_config());
  for (std::size_t b = 0; b < n; ++b) {
    store.ingest(batches[b]);
  }
  return store;
}

/// Every blob in `backend`, by name — the pristine pre-crash state that
/// each surgical trial starts from.
std::map<std::string, std::string> dump(st::MemObjectBackend& backend) {
  std::map<std::string, std::string> objects;
  const auto refs = backend.list("").value();
  for (const auto& ref : refs) {
    objects[ref.name] = backend.get(ref).value();
  }
  return objects;
}

std::shared_ptr<st::MemObjectBackend> restore_backend(
    const std::map<std::string, std::string>& objects) {
  auto backend = std::make_shared<st::MemObjectBackend>();
  for (const auto& [name, bytes] : objects) {
    backend->poke(st::BlobRef{name}, bytes);
  }
  return backend;
}

// --- incremental checkpoints ------------------------------------------

TEST(DeltaCheckpoints, CheckpointCostIsTheDeltaNotTheStore) {
  // Two big founding batches, then small ones: after the first segment,
  // each checkpoint must write only the records added since the last one.
  const auto batches = make_batches({20, 20, 3, 3, 3, 3}, 1);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  policy.compact_every = 8;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_EQ(durable.stats().checkpoints, 3u);
  EXPECT_EQ(durable.stats().compactions, 0u);
  // The segment from record 0, then two that each hold one checkpoint's
  // new records.
  const auto& segments = durable.manifest().segments;
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments.front().to_record, 40u);

  const auto first_size =
      backend->get(st::BlobRef{segments.front().blob})->size();
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const auto size = backend->get(st::BlobRef{segments[i].blob})->size();
    EXPECT_LT(size * 4, first_size)
        << segments[i].blob << " should be a fraction of the first segment";
  }

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->segments_applied, 3u);
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(DeltaCheckpoints, CountTriggeredCompactionFoldsDeltasIntoANewBase) {
  const auto batches = make_batches({20, 20, 2, 2, 2, 2, 2, 2}, 2);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  policy.compact_every = 2;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_GT(durable.stats().compactions, 0u);
  // Compaction sweeps the folded segments: only the chain the manifest
  // references (plus MANIFEST and journal) remains.
  EXPECT_LE(backend->object_count(),
            2 + durable.manifest().segments.size());

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(DeltaCheckpoints, SizeTriggeredCompactionKeepsRecoveryReadsBounded) {
  // A small first segment then big later ones: when they out-weigh the
  // first, the next checkpoint must fold even though compact_every is
  // far away.
  const auto batches = make_batches({4, 8}, 3);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  policy.compact_every = 100;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_GT(durable.stats().compactions, 0u);
  ASSERT_EQ(durable.manifest().segments.size(), 1u);
  EXPECT_EQ(durable.manifest().segments.front().to_record, 12u);

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- kill-at-every-byte ------------------------------------------------

/// Builds the standard crash scenario: 5 batches, checkpoint at batch 3
/// (seg-0-3), frames 3 and 4 in the journal.
struct JournalScenario {
  std::vector<std::vector<lk::PersonRecord>> batches;
  std::map<std::string, std::string> objects;
  lk::DurabilityPolicy policy;
};

JournalScenario build_journal_scenario() {
  JournalScenario s;
  s.batches = make_batches({6, 6, 6, 6, 6}, 4);
  s.policy.checkpoint_every = 3;
  s.policy.compact_every = 8;
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurableEntityStore durable(fpdl_config(), backend, s.policy);
  for (const auto& batch : s.batches) {
    EXPECT_TRUE(durable.ingest(batch).ok());
  }
  s.objects = dump(*backend);
  EXPECT_TRUE(s.objects.count("MANIFEST"));
  EXPECT_TRUE(s.objects.count("seg-0-3"));
  EXPECT_GT(s.objects.at("journal").size(), 0u);
  return s;
}

TEST(KillAtEveryByte, JournalCutRecoversTheExactFramePrefix) {
  const auto s = build_journal_scenario();
  const std::string journal = s.objects.at("journal");
  // Frame boundaries, recomputed from the deterministic encoding.
  std::vector<std::size_t> frame_end;
  std::size_t off = 0;
  for (std::uint64_t seq = 3; seq < 5; ++seq) {
    off += lk::encode_journal_frame(seq, s.batches[seq]).size();
    frame_end.push_back(off);
  }
  ASSERT_EQ(off, journal.size());

  for (std::size_t keep = 0; keep <= journal.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"journal"}, journal.substr(0, keep));
    std::size_t frames_fit = 0;
    while (frames_fit < frame_end.size() && frame_end[frames_fit] <= keep) {
      ++frames_fit;
    }
    const std::size_t expect_batches = 3 + frames_fit;

    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok())
        << "keep " << keep << ": " << report.status().to_string();
    ASSERT_EQ(report->batches_ingested, expect_batches) << "keep " << keep;
    expect_stores_equal(reference_store(s.batches, expect_batches),
                        recovered.store());
  }
}

TEST(KillAtEveryByte, TruncatedManifestIsAlwaysDetected) {
  const auto s = build_journal_scenario();
  const std::string manifest = s.objects.at("MANIFEST");
  for (std::size_t keep = 0; keep < manifest.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"MANIFEST"}, manifest.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    EXPECT_FALSE(report.ok()) << "keep " << keep
                              << ": a cut manifest must never load";
  }
}

TEST(KillAtEveryByte, TruncatedBaseIsAlwaysDetected) {
  const auto s = build_journal_scenario();
  // The segment from record 0, cut at every byte.
  const std::string first = s.objects.at("seg-0-3");
  for (std::size_t keep = 0; keep < first.size(); ++keep) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{"seg-0-3"}, first.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    EXPECT_FALSE(recovered.recover().ok()) << "keep " << keep;
  }
}

TEST(KillAtEveryByte, TruncatedDeltaIsAlwaysDetected) {
  // A chain with a later segment: seg-0-2, then seg-2-4; cut the later
  // one at every byte — the damage must always surface.
  const auto batches = make_batches({15, 15, 3, 3, 3}, 5);
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  policy.compact_every = 8;
  auto pristine = std::make_shared<st::MemObjectBackend>();
  {
    lk::DurableEntityStore durable(fpdl_config(), pristine, policy);
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
    ASSERT_EQ(durable.manifest().segments.size(), 2u);
  }
  const auto objects = dump(*pristine);
  const std::string later = objects.at("seg-2-4");
  for (std::size_t keep = 0; keep < later.size(); ++keep) {
    auto backend = restore_backend(objects);
    backend->poke(st::BlobRef{"seg-2-4"}, later.substr(0, keep));
    lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
    EXPECT_FALSE(recovered.recover().ok()) << "keep " << keep;
  }
  // The undamaged chain still recovers to the reference state.
  lk::DurableEntityStore recovered(fpdl_config(), restore_backend(objects),
                                   policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(KillAtEveryByte, OrphanBlobsFromACrashedCheckpointAreIgnored) {
  // A crash after a segment blob landed but before the manifest swap
  // leaves an orphan the manifest never references: recovery must ignore
  // it (whatever partial bytes it holds), and the next checkpoint sweeps.
  const auto s = build_journal_scenario();
  const std::string garbage(37, '\xBE');
  for (const char* orphan : {"seg-0-1", "seg-9-12"}) {
    auto backend = restore_backend(s.objects);
    backend->poke(st::BlobRef{orphan}, garbage);
    lk::DurableEntityStore recovered(fpdl_config(), backend, s.policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok()) << orphan << " tripped recovery";
    expect_stores_equal(reference_store(s.batches, 5), recovered.store());
    // The next checkpoint sweeps what the manifest does not reference.
    ASSERT_TRUE(recovered.checkpoint().ok());
    EXPECT_FALSE(recovered.backend()->exists(st::BlobRef{orphan}).value());
  }
}

// --- group commit -------------------------------------------------------

TEST(GroupCommit, EntityIdsAreIdenticalUnderAnySyncPolicy) {
  // Satellite acceptance: batching/timer settings change WHEN bytes hit
  // the backend, never WHAT replays — same batches, same entity ids.
  const auto batches = make_batches({7, 7, 7, 7, 7, 7}, 8);
  const auto reference = reference_store(batches, batches.size());
  for (const auto& [max_batch, max_delay_ms] :
       std::vector<std::pair<std::size_t, double>>{
           {1, 0.0}, {2, 0.0}, {3, 0.0}, {100, 0.0}, {4, 1.0}}) {
    auto backend = std::make_shared<st::MemObjectBackend>();
    lk::DurabilityPolicy policy;
    policy.checkpoint_every = 0;
    policy.group_commit.max_batch = max_batch;
    policy.group_commit.max_delay_ms = max_delay_ms;
    {
      lk::DurableEntityStore durable(fpdl_config(), backend, policy);
      for (const auto& batch : batches) {
        ASSERT_TRUE(durable.ingest(batch).ok());
      }
      expect_stores_equal(reference, durable.store());
      // The destructor syncs the pending suffix (clean shutdown).
    }
    lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
    const auto report = recovered.recover();
    ASSERT_TRUE(report.ok()) << "max_batch " << max_batch;
    EXPECT_EQ(report->batches_ingested, batches.size())
        << "max_batch " << max_batch;
    expect_stores_equal(reference, recovered.store());
  }
}

TEST(GroupCommit, BatchingAmortizesSyncs) {
  const auto batches = make_batches({5, 5, 5, 5, 5, 5}, 9);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 3;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    ASSERT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_EQ(durable.stats().journal_appends, 6u);
  EXPECT_EQ(durable.stats().journal_syncs, 2u);  // 6 appends / 3 per sync
}

TEST(GroupCommit, TimerFlushesAStalePendingBatch) {
  const auto batches = make_batches({5, 5}, 10);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 100;   // count alone would never sync
  policy.group_commit.max_delay_ms = 1.0;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  EXPECT_EQ(durable.stats().journal_syncs, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(durable.ingest(batches[1]).ok());  // pending age > 1ms
  EXPECT_EQ(durable.stats().journal_syncs, 1u);

  durable.simulate_crash();  // both frames were synced by the timer
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  EXPECT_EQ(recovered.batches_ingested(), 2u);
}

TEST(GroupCommit, CrashLosesExactlyTheUnsyncedWindow) {
  // The documented trade: with max_batch = 4, a kill -9 after 6 acked
  // batches recovers the 4 synced ones — no more, no less, and the
  // recovered ids match an uninterrupted 4-batch run exactly.
  const auto batches = make_batches({6, 6, 6, 6, 6, 6}, 11);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 0;
  policy.group_commit.max_batch = 4;
  {
    lk::DurableEntityStore durable(fpdl_config(), backend, policy);
    for (const auto& batch : batches) {
      ASSERT_TRUE(durable.ingest(batch).ok());
    }
    durable.simulate_crash();  // frames 4 and 5 were never synced
    const auto refused = durable.ingest(batches[0]);
    EXPECT_FALSE(refused.ok());  // a crashed store refuses new work
    EXPECT_EQ(refused.status().code(), u::StatusCode::kFailedPrecondition);
  }
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->batches_ingested, 4u);
  expect_stores_equal(reference_store(batches, 4), recovered.store());

  // Re-acking the lost window converges with the never-crashed run.
  for (std::size_t b = 4; b < batches.size(); ++b) {
    ASSERT_TRUE(recovered.ingest(batches[b]).ok());
  }
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- degradation accounting ---------------------------------------------

TEST(CheckpointRetry, FailedCheckpointsRetryOnTheNextBatchAndAreCounted) {
  // Satellite acceptance: a put-failing backend degrades the store (the
  // journal keeps every batch) and each later batch retries; when the
  // backend heals, the very next ingest checkpoints successfully.
  u::FaultConfig config;
  config.seed = 31;
  config.put_fail_rate = 1.0;
  u::FaultInjector faults(config);
  const auto batches = make_batches({5, 5, 5, 5, 5}, 12);
  auto backend = std::make_shared<st::MemObjectBackend>(&faults);
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  // Buffered appends keep the journal path off the put-fault site so the
  // failure isolates to checkpoint blobs.
  policy.group_commit.max_batch = 100;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (std::size_t b = 0; b < 4; ++b) {
    ASSERT_TRUE(durable.ingest(batches[b]).ok());  // ingest never fails
  }
  // every-2 policy, first attempt at batch 2, retries at 3 and 4.
  EXPECT_EQ(durable.checkpoint_failures(), 3u);
  EXPECT_EQ(durable.stats().checkpoints, 0u);
  EXPECT_FALSE(durable.stats().last_error.empty());
  EXPECT_GT(faults.counters().put_failures, 0u);

  backend->set_faults(nullptr);  // the backend heals
  ASSERT_TRUE(durable.ingest(batches[4]).ok());
  EXPECT_EQ(durable.stats().checkpoints, 1u);
  EXPECT_EQ(durable.checkpoint_failures(), 3u);  // history, not state
  EXPECT_EQ(durable.manifest().batches_covered(), 5u);

  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  ASSERT_TRUE(recovered.recover().ok());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

TEST(CheckpointRetry, LostManifestPutRestoresThePreviousChain) {
  // An acked-then-lost MANIFEST would orphan the whole chain; the
  // read-back verify must catch it, restore the previous manifest and
  // count a failure — recovery stays on the old chain.
  const auto batches = make_batches({6, 6, 6, 6}, 13);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 2;
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  ASSERT_TRUE(durable.ingest(batches[0]).ok());
  ASSERT_TRUE(durable.ingest(batches[1]).ok());  // chain covers 2 batches
  EXPECT_EQ(durable.stats().checkpoints, 1u);

  u::FaultConfig config;
  config.seed = 33;
  config.lost_object_rate = 1.0;
  u::FaultInjector faults(config);
  backend->set_faults(&faults);
  ASSERT_TRUE(durable.ingest(batches[2]).ok());
  ASSERT_TRUE(durable.ingest(batches[3]).ok());
  EXPECT_GT(durable.checkpoint_failures(), 0u);
  backend->set_faults(nullptr);

  // The old chain survived the failed swap; the journal still holds the
  // uncovered batches, so recovery reaches the full state.
  lk::DurableEntityStore recovered(fpdl_config(), backend, policy);
  const auto report = recovered.recover();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->batches_ingested, batches.size());
  expect_stores_equal(reference_store(batches, batches.size()),
                      recovered.store());
}

// --- codec edge cases ---------------------------------------------------

TEST(DeltaCodec, EveryByteCorruptionIsDetected) {
  // A segment that starts past record 0 (an incremental checkpoint):
  // one flipped bit at any offset must fail decode_segment with
  // kDataLoss, and verify_segment must give the same verdict.
  lk::EntityStore store(fpdl_config());
  const auto batches = make_batches({6, 6}, 14);
  store.ingest(batches[0]);
  const std::size_t from = store.size();
  store.ingest(batches[1]);
  const std::string bytes = lk::encode_segment(store, from, 1, 2);
  ASSERT_TRUE(lk::decode_segment(bytes).ok());
  Rng rng(45);
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(
        static_cast<unsigned char>(corrupt[offset]) ^
        (1u << rng.below(8)));
    const auto decoded = lk::decode_segment(corrupt);
    EXPECT_FALSE(decoded.ok()) << "byte " << offset;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), u::StatusCode::kDataLoss);
    }
    const auto verified = lk::verify_segment(corrupt);
    EXPECT_EQ(verified.ok(), decoded.ok()) << "byte " << offset;
    if (!verified.ok() && !decoded.ok()) {
      EXPECT_EQ(verified.status().code(), decoded.status().code())
          << "byte " << offset;
    }
  }
}

TEST(ManifestCodec, RoundTripsAndRejectsBrokenChains) {
  lk::SnapshotManifest manifest;
  manifest.segments.push_back({"seg-0-4", 0, 4, 0, 120});
  manifest.segments.push_back({"seg-4-6", 4, 6, 120, 150});
  manifest.segments.push_back({"seg-6-9", 6, 9, 150, 180});
  const std::string bytes = lk::encode_manifest(manifest);
  const auto decoded = lk::decode_manifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->segments.size(), 3u);
  EXPECT_EQ(decoded->segments.front().blob, "seg-0-4");
  EXPECT_EQ(decoded->batches_covered(), 9u);
  EXPECT_EQ(decoded->records_covered(), 180u);

  // A gap in the chain (a segment starting past the covered position)
  // must be rejected at decode time, before any blob is fetched; so must
  // an overlap and a chain that does not start at 0/0.
  lk::SnapshotManifest gap = manifest;
  gap.segments[2].from_batches = 7;
  EXPECT_FALSE(lk::decode_manifest(lk::encode_manifest(gap)).ok());
  lk::SnapshotManifest overlap = manifest;
  overlap.segments[2].from_record = 140;
  EXPECT_FALSE(lk::decode_manifest(lk::encode_manifest(overlap)).ok());
  for (const bool batches : {true, false}) {
    lk::SnapshotManifest late_start = manifest;
    late_start.segments.erase(late_start.segments.begin());
    if (batches) {
      late_start.segments.front().from_record = 0;
    } else {
      late_start.segments.front().from_batches = 0;
    }
    EXPECT_FALSE(lk::decode_manifest(lk::encode_manifest(late_start)).ok())
        << (batches ? "starts past batch 0" : "starts past record 0");
  }
}

// --- every segment against its manifest entry ---------------------------

/// A chain of three segments: seg-0-1 (records [0, 20)), seg-1-2
/// ([20, 23)) and seg-2-3 ([23, 26)).
std::map<std::string, std::string> three_segment_chain(
    const lk::DurabilityPolicy& policy) {
  const auto batches = make_batches({20, 3, 3}, 15);
  auto backend = std::make_shared<st::MemObjectBackend>();
  lk::DurableEntityStore durable(fpdl_config(), backend, policy);
  for (const auto& batch : batches) {
    EXPECT_TRUE(durable.ingest(batch).ok());
  }
  EXPECT_EQ(durable.manifest().segments.size(), 3u);
  return dump(*backend);
}

lk::SnapshotManifest manifest_of(
    const std::map<std::string, std::string>& objects) {
  return lk::decode_manifest(objects.at("MANIFEST")).value();
}

TEST(SegmentChain, LaterSegmentLongerThanItsManifestEntryIsDataLoss) {
  // Regression: recovery checked a record count against its manifest
  // entry only for the first segment.  A manifest whose last entry ends
  // one record early recovered all 26 records; the next checkpoint then
  // wrote a segment starting at record 25, and every later recovery
  // failed.
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  auto objects = three_segment_chain(policy);
  lk::SnapshotManifest manifest = manifest_of(objects);
  manifest.segments.back().to_record -= 1;
  objects["MANIFEST"] = lk::encode_manifest(manifest);

  lk::DurableEntityStore recovered(fpdl_config(), restore_backend(objects),
                                   policy);
  const auto report = recovered.recover();
  ASSERT_FALSE(report.ok()) << "recovered " << recovered.store().size()
                            << " records against a manifest that covers "
                            << manifest.records_covered();
  EXPECT_EQ(report.status().code(), u::StatusCode::kDataLoss);
  EXPECT_EQ(recovered.store().size(), 0u);
}

TEST(SegmentChain, AnyBoundThatDisagreesWithItsEntryIsDataLoss) {
  // Each edit keeps the manifest a valid, contiguous chain, so only the
  // comparison of every segment's own header with its entry can catch
  // it — on the first segment, a middle one and the last.
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  const auto objects = three_segment_chain(policy);
  using Edit = void (*)(lk::SnapshotManifest&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"first ends a record late",
       [](lk::SnapshotManifest& m) {
         ++m.segments[0].to_record;
         ++m.segments[1].from_record;
       }},
      {"first ends a batch late",
       [](lk::SnapshotManifest& m) {
         ++m.segments[0].to_batches;
         ++m.segments[1].from_batches;
       }},
      {"middle starts a record early",
       [](lk::SnapshotManifest& m) {
         --m.segments[0].to_record;
         --m.segments[1].from_record;
       }},
      {"middle starts a batch early",
       [](lk::SnapshotManifest& m) {
         --m.segments[0].to_batches;
         --m.segments[1].from_batches;
       }},
      {"last ends a record late",
       [](lk::SnapshotManifest& m) { ++m.segments[2].to_record; }},
      {"last ends a batch late",
       [](lk::SnapshotManifest& m) { ++m.segments[2].to_batches; }},
  };
  for (const auto& [what, edit] : edits) {
    auto damaged = objects;
    lk::SnapshotManifest manifest = manifest_of(objects);
    edit(manifest);
    ASSERT_TRUE(lk::decode_manifest(lk::encode_manifest(manifest)).ok())
        << what;
    damaged["MANIFEST"] = lk::encode_manifest(manifest);
    lk::DurableEntityStore recovered(fpdl_config(), restore_backend(damaged),
                                     policy);
    const auto report = recovered.recover();
    ASSERT_FALSE(report.ok()) << what;
    EXPECT_EQ(report.status().code(), u::StatusCode::kDataLoss) << what;
    EXPECT_EQ(recovered.store().size(), 0u) << what;
  }
}

// --- directories in an older format ---------------------------------------

/// A blob in the envelope every format version shares: magic, version,
/// payload size, FNV-1a checksum, payload.
std::string seal(std::uint64_t magic, std::uint32_t version,
                 std::string_view payload) {
  std::string blob;
  u::wire::put<std::uint64_t>(blob, magic);
  u::wire::put<std::uint32_t>(blob, version);
  u::wire::put<std::uint64_t>(blob, payload.size());
  u::wire::put<std::uint64_t>(blob, u::fnv1a64(payload));
  blob.append(payload);
  return blob;
}

/// `store` as a format-1 base snapshot covering `batches` batches,
/// without signatures: batches, entity total, has-signatures flag,
/// record count, then each record and its entity id.
std::string format_one_base(const lk::EntityStore& store,
                            std::uint64_t batches) {
  std::string payload;
  u::wire::put<std::uint64_t>(payload, batches);
  u::wire::put<std::uint32_t>(
      payload, static_cast<std::uint32_t>(store.entity_count()));
  u::wire::put<std::uint8_t>(payload, 0);
  u::wire::put<std::uint64_t>(payload, store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    lk::wire::put_record(payload, store.records()[i]);
    u::wire::put<std::uint32_t>(payload, store.entity_ids()[i]);
  }
  return seal(0x31504E5346424600ull, 1, payload);  // "\0FBFSNP1"
}

/// A format-1 manifest naming one base and no deltas.
std::string format_one_manifest(const std::string& base_blob,
                                std::uint64_t batches, std::uint64_t records) {
  std::string payload;
  u::wire::put_string(payload, base_blob);
  u::wire::put<std::uint64_t>(payload, batches);
  u::wire::put<std::uint64_t>(payload, records);
  u::wire::put<std::uint32_t>(payload, 0);
  return seal(0x314E414D46424600ull, 1, payload);  // "\0FBFMAN1"
}

/// Recovers `objects` and expects kDataLoss with nothing loaded and
/// every blob left as it was.
void expect_refused(const std::map<std::string, std::string>& objects) {
  auto backend = restore_backend(objects);
  lk::DurableEntityStore recovered(fpdl_config(), backend,
                                   lk::DurabilityPolicy{});
  const auto report = recovered.recover();
  ASSERT_FALSE(report.ok()) << "an old-format directory loaded";
  EXPECT_EQ(report.status().code(), u::StatusCode::kDataLoss)
      << report.status().to_string();
  EXPECT_EQ(recovered.store().size(), 0u);
  EXPECT_EQ(recovered.batches_ingested(), 0u);
  EXPECT_EQ(dump(*backend), objects);
}

TEST(OldFormat, FormatOneManifestDirectoryIsDataLoss) {
  // base-2.snap + a format-1 MANIFEST + journal frames 2 and 3: a
  // directory the base/delta writer left behind.
  const auto batches = make_batches({10, 10, 10, 10}, 6);
  const auto two = reference_store(batches, 2);
  std::map<std::string, std::string> objects;
  objects["base-2.snap"] = format_one_base(two, 2);
  objects["MANIFEST"] = format_one_manifest("base-2.snap", 2, two.size());
  objects["journal"] = lk::encode_journal_frame(2, batches[2]) +
                       lk::encode_journal_frame(3, batches[3]);
  expect_refused(objects);
}

TEST(OldFormat, PreManifestSnapshotWithAJournalTailIsDataLoss) {
  // A monolithic store.snap and the journal frames after it, with no
  // MANIFEST: the journal resumes at batch 2 with no chain under it.
  const auto batches = make_batches({10, 10, 10, 10}, 7);
  std::map<std::string, std::string> objects;
  objects["store.snap"] = format_one_base(reference_store(batches, 2), 2);
  objects["journal"] = lk::encode_journal_frame(2, batches[2]) +
                       lk::encode_journal_frame(3, batches[3]);
  expect_refused(objects);
}

TEST(OldFormat, FormatOneSegmentUnderACurrentManifestIsDataLoss) {
  // A current chain whose segment carries format version 1 (the
  // checksum covers only the payload, so it still matches).
  lk::DurabilityPolicy policy;
  policy.checkpoint_every = 1;
  const auto objects = three_segment_chain(policy);
  for (const std::string name : {"seg-0-1", "seg-2-3"}) {
    auto damaged = objects;
    const std::uint32_t version = 1;
    std::memcpy(damaged.at(name).data() + sizeof(std::uint64_t), &version,
                sizeof(version));
    expect_refused(damaged);
  }
}

}  // namespace
