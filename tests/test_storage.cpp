// Contract tests for the pluggable storage backends: every behavior the
// durability layer leans on (atomic whole-object put, kNotFound gets,
// sorted prefix list, buffered append-until-sync, keyed fault injection)
// must hold identically for LocalDirBackend and MemObjectBackend — the
// same suite runs against both.
#include "storage/backend.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "storage/local_dir.hpp"
#include "storage/mem_object.hpp"
#include "util/fault.hpp"

namespace {

namespace st = fbf::storage;
namespace u = fbf::util;
namespace fs = std::filesystem;

/// Factory owning one LocalDirBackend's scratch directory.  The name
/// embeds the pid: ctest runs each test in its own process, so a
/// per-process counter alone collides when two LocalDir tests run
/// concurrently under -j (both would claim scratch dir 0 and
/// remove_all each other's files).
struct LocalDirFactory {
  LocalDirFactory() {
    static int counter = 0;
    dir = fs::path(::testing::TempDir()) /
          ("fbf_storage_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::remove_all(dir);
  }
  ~LocalDirFactory() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  [[nodiscard]] std::unique_ptr<st::StorageBackend> make(
      u::FaultInjector* faults = nullptr) const {
    return std::make_unique<st::LocalDirBackend>(dir.string(), faults);
  }
  fs::path dir;
};

struct MemFactory {
  [[nodiscard]] std::unique_ptr<st::StorageBackend> make(
      u::FaultInjector* faults = nullptr) const {
    return std::make_unique<st::MemObjectBackend>(faults);
  }
};

template <typename Factory>
class BackendContract : public ::testing::Test {
 protected:
  Factory factory_;
};

using BackendTypes = ::testing::Types<LocalDirFactory, MemFactory>;
TYPED_TEST_SUITE(BackendContract, BackendTypes);

TYPED_TEST(BackendContract, PutGetExistsRemoveRoundTrip) {
  auto backend = this->factory_.make();
  const st::BlobRef ref{"chunk"};
  EXPECT_EQ(backend->get(ref).status().code(), u::StatusCode::kNotFound);
  EXPECT_FALSE(backend->exists(ref).value());

  ASSERT_TRUE(backend->put(ref, "first").ok());
  EXPECT_TRUE(backend->exists(ref).value());
  EXPECT_EQ(backend->get(ref).value(), "first");

  ASSERT_TRUE(backend->put(ref, "second, longer").ok());  // whole replace
  EXPECT_EQ(backend->get(ref).value(), "second, longer");

  ASSERT_TRUE(backend->remove(ref).ok());
  EXPECT_FALSE(backend->exists(ref).value());
  EXPECT_EQ(backend->get(ref).status().code(), u::StatusCode::kNotFound);
  ASSERT_TRUE(backend->remove(ref).ok());  // idempotent
  EXPECT_FALSE(backend->description().empty());
}

TYPED_TEST(BackendContract, EmptyAndMultiMegabyteBlobsRoundTripExactly) {
  // The two sizes a one-read get could get wrong: zero bytes (exists,
  // reads back empty, not kNotFound) and a blob several MB long that
  // holds every byte value, NULs and 0xFF included.
  auto backend = this->factory_.make();
  const st::BlobRef empty{"empty.snap"};
  ASSERT_TRUE(backend->put(empty, std::string{}).ok());
  EXPECT_TRUE(backend->exists(empty).value());
  const u::Result<std::string> got_empty = backend->get(empty);
  ASSERT_TRUE(got_empty.ok()) << got_empty.status().to_string();
  EXPECT_TRUE(got_empty->empty());

  std::string big(3 * 1024 * 1024 + 17, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>((i * 131 + i / 256) & 0xFF);
  }
  for (int v = 0; v < 256; ++v) {
    ASSERT_NE(big.find(static_cast<char>(v)), std::string::npos) << v;
  }
  const st::BlobRef large{"base-big.snap"};
  ASSERT_TRUE(backend->put(large, big).ok());
  const u::Result<std::string> got_big = backend->get(large);
  ASSERT_TRUE(got_big.ok()) << got_big.status().to_string();
  EXPECT_EQ(got_big->size(), big.size());
  EXPECT_TRUE(*got_big == big);
}

TYPED_TEST(BackendContract, ListFiltersByPrefixAndSorts) {
  auto backend = this->factory_.make();
  ASSERT_TRUE(backend->put(st::BlobRef{"delta-3-5.seg"}, "b").ok());
  ASSERT_TRUE(backend->put(st::BlobRef{"base-3.snap"}, "a").ok());
  ASSERT_TRUE(backend->put(st::BlobRef{"delta-1-3.seg"}, "c").ok());
  ASSERT_TRUE(backend->put(st::BlobRef{"journal"}, "d").ok());

  const auto deltas = backend->list("delta-");
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 2u);
  EXPECT_EQ(deltas->at(0).name, "delta-1-3.seg");
  EXPECT_EQ(deltas->at(1).name, "delta-3-5.seg");

  const auto all = backend->list("");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
  EXPECT_TRUE(std::is_sorted(all->begin(), all->end()));

  EXPECT_TRUE(backend->list("nope-")->empty());
}

TYPED_TEST(BackendContract, AppendsBufferUntilSync) {
  auto backend = this->factory_.make();
  const st::BlobRef ref{"journal"};
  auto handle = backend->open_append(ref, /*truncate=*/false);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE((*handle)->append("frame-one|").ok());
  ASSERT_TRUE((*handle)->append("frame-two|").ok());
  EXPECT_EQ((*handle)->pending_bytes(), 20u);
  // Nothing is durable before sync: the blob reads empty/absent.
  const auto before = backend->get(ref);
  EXPECT_TRUE(!before.ok() || before.value().empty());

  ASSERT_TRUE((*handle)->sync().ok());
  EXPECT_EQ((*handle)->pending_bytes(), 0u);
  EXPECT_EQ(backend->get(ref).value(), "frame-one|frame-two|");

  // An abandoned handle with pending bytes IS the kill -9: the suffix
  // never reaches the blob.
  ASSERT_TRUE((*handle)->append("frame-three|").ok());
  handle->reset();
  EXPECT_EQ(backend->get(ref).value(), "frame-one|frame-two|");
}

TYPED_TEST(BackendContract, AppendContinuesAcrossHandlesAndTruncates) {
  auto backend = this->factory_.make();
  const st::BlobRef ref{"journal"};
  {
    auto handle = backend->open_append(ref, /*truncate=*/false);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE((*handle)->append("aaa").ok());
    ASSERT_TRUE((*handle)->sync().ok());
  }
  {
    auto handle = backend->open_append(ref, /*truncate=*/false);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE((*handle)->append("bbb").ok());
    ASSERT_TRUE((*handle)->sync().ok());
  }
  EXPECT_EQ(backend->get(ref).value(), "aaabbb");
  {
    auto handle = backend->open_append(ref, /*truncate=*/true);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(backend->get(ref).value(), "");
    ASSERT_TRUE((*handle)->append("ccc").ok());
    ASSERT_TRUE((*handle)->sync().ok());
  }
  EXPECT_EQ(backend->get(ref).value(), "ccc");
}

TYPED_TEST(BackendContract, InjectedPutFailureLeavesTheOldObject) {
  u::FaultConfig config;
  config.seed = 7;
  config.put_fail_rate = 1.0;
  u::FaultInjector faults(config);
  auto backend = this->factory_.make();
  const st::BlobRef ref{"victim"};
  ASSERT_TRUE(backend->put(ref, "intact").ok());

  backend->set_faults(&faults);
  const auto failed = backend->put(ref, "replacement");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), u::StatusCode::kIoError);
  EXPECT_GT(faults.counters().put_failures, 0u);

  backend->set_faults(nullptr);  // detaching restores clean behavior
  EXPECT_EQ(backend->get(ref).value(), "intact");
  ASSERT_TRUE(backend->put(ref, "replacement").ok());
  EXPECT_EQ(backend->get(ref).value(), "replacement");
}

TYPED_TEST(BackendContract, InjectedLostObjectAcksThenVanishes) {
  u::FaultConfig config;
  config.seed = 9;
  config.lost_object_rate = 1.0;
  u::FaultInjector faults(config);
  auto backend = this->factory_.make(&faults);
  const st::BlobRef ref{"ghost"};
  ASSERT_TRUE(backend->put(ref, "acked").ok());  // the put "succeeds"...
  EXPECT_FALSE(backend->exists(ref).value());    // ...the object is gone
  EXPECT_GT(faults.counters().lost_objects, 0u);
}

TYPED_TEST(BackendContract, InjectedTornPutLeavesAnObservablePrefix) {
  u::FaultConfig config;
  config.seed = 11;
  config.torn_write_rate = 1.0;
  u::FaultInjector faults(config);
  auto backend = this->factory_.make(&faults);
  const st::BlobRef ref{"torn"};
  const std::string payload = "0123456789abcdef0123456789abcdef";
  const auto torn = backend->put(ref, payload);
  EXPECT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), u::StatusCode::kUnavailable);
  EXPECT_GT(faults.counters().torn_writes, 0u);

  backend->set_faults(nullptr);
  const auto landed = backend->get(ref);
  ASSERT_TRUE(landed.ok());  // the partial object IS observable
  EXPECT_LT(landed.value().size(), payload.size());
  EXPECT_EQ(landed.value(), payload.substr(0, landed.value().size()));
}

TYPED_TEST(BackendContract, InjectedTornSyncKillsTheHandle) {
  u::FaultConfig config;
  config.seed = 13;
  config.torn_write_rate = 1.0;
  u::FaultInjector faults(config);
  auto backend = this->factory_.make(&faults);
  const st::BlobRef ref{"journal"};
  auto handle = backend->open_append(ref, /*truncate=*/false);
  ASSERT_TRUE(handle.ok());
  const std::string frame(64, 'x');
  ASSERT_TRUE((*handle)->append(frame).ok());
  const auto synced = (*handle)->sync();
  EXPECT_FALSE(synced.ok());
  EXPECT_EQ(synced.code(), u::StatusCode::kUnavailable);
  // The modeled process died mid-sync: the handle refuses further use.
  EXPECT_FALSE((*handle)->append("more").ok());
  EXPECT_FALSE((*handle)->sync().ok());

  backend->set_faults(nullptr);
  const auto landed = backend->get(ref);
  ASSERT_TRUE(landed.ok());
  EXPECT_LT(landed.value().size(), frame.size());  // a strict prefix landed
}

TYPED_TEST(BackendContract, SlowBackendOpsAreTallied) {
  u::FaultConfig config;
  config.seed = 15;
  config.slow_backend_rate = 1.0;  // slow_backend_ms stays 0: tally only
  u::FaultInjector faults(config);
  auto backend = this->factory_.make(&faults);
  ASSERT_TRUE(backend->put(st::BlobRef{"a"}, "x").ok());
  EXPECT_GT(faults.counters().slow_ops, 0u);
}

TEST(LocalDirBackend, BlobsAreFilesAndLegacyFilesAreBlobs) {
  LocalDirFactory scratch;
  auto backend = scratch.make();
  ASSERT_TRUE(backend->put(st::BlobRef{"store.snap"}, "snapshot-bytes").ok());
  // The blob is exactly the file the pre-storage layer would have written.
  EXPECT_EQ(fs::file_size(scratch.dir / "store.snap"), 14u);
  // And a file dropped in by an old writer is readable as a blob.
  std::ofstream(scratch.dir / "old.journal", std::ios::binary) << "legacy";
  EXPECT_EQ(backend->get(st::BlobRef{"old.journal"}).value(), "legacy");
}

TEST(LocalDirBackend, NoTmpFilesSurviveAPut) {
  LocalDirFactory scratch;
  auto backend = scratch.make();
  ASSERT_TRUE(backend->put(st::BlobRef{"a"}, "x").ok());
  ASSERT_TRUE(backend->put(st::BlobRef{"b"}, "y").ok());
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_EQ(backend->list("").value().size(), 2u);
}

TEST(MemObjectBackend, PokeAndObjectCountSupportByteSurgery) {
  st::MemObjectBackend backend;
  ASSERT_TRUE(backend.put(st::BlobRef{"blob"}, "original").ok());
  EXPECT_EQ(backend.object_count(), 1u);
  backend.poke(st::BlobRef{"blob"}, "surgery");
  EXPECT_EQ(backend.get(st::BlobRef{"blob"}).value(), "surgery");
}

}  // namespace
