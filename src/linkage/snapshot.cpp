#include "linkage/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "linkage/record_codec.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace fbf::linkage {

namespace u = fbf::util;

namespace {

// Byte-level encoding (host-endian, length-prefixed) comes from
// util::wire; the record/signature layout and the journal's record list
// are shared with the network protocols via linkage/record_codec.
using fbf::util::wire::put;
using fbf::util::wire::put_string;
using fbf::util::wire::Reader;
using wire::get_record;
using wire::get_signatures;
using wire::put_record;
using wire::put_signatures;

constexpr std::uint64_t kSegmentMagic = 0x3147455346424600ull;   // "\0FBFSEG1"
constexpr std::uint64_t kManifestMagic = 0x314E414D46424600ull;  // "\0FBFMAN1"
constexpr std::uint32_t kFrameMagic = 0x4C4E524Au;               // "JRNL"
// A payload larger than this is structurally implausible for this store
// and is rejected outright, so a lying length field in a damaged header
// can never force a giant allocation.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Envelope shared by segment and manifest blobs: magic, version,
/// payload size, payload checksum.  One writer, one reader — a blob kind
/// can never disagree with itself about layout.
constexpr std::size_t kEnvelopeBytes = sizeof(std::uint64_t) +
                                       sizeof(std::uint32_t) +
                                       2 * sizeof(std::uint64_t);

std::string seal_envelope(std::uint64_t magic, std::uint32_t version,
                          std::string_view payload) {
  std::string blob;
  blob.reserve(kEnvelopeBytes + payload.size());
  put<std::uint64_t>(blob, magic);
  put<std::uint32_t>(blob, version);
  put<std::uint64_t>(blob, payload.size());
  put<std::uint64_t>(blob, u::fnv1a64(payload));
  blob.append(payload);
  return blob;
}

/// Validates the envelope of `bytes` and returns the checksum-verified
/// payload.  kDataLoss on anything wrong — truncation, bad magic,
/// unsupported version, checksum mismatch.
u::Result<std::string_view> open_envelope(std::string_view bytes,
                                          std::uint64_t magic,
                                          std::uint32_t version,
                                          const char* what) {
  const std::string kind(what);
  if (bytes.size() < kEnvelopeBytes) {
    return u::Status::data_loss(kind + " header truncated at byte " +
                                std::to_string(bytes.size()));
  }
  Reader h{bytes.substr(0, kEnvelopeBytes)};
  std::uint64_t got_magic = 0;
  std::uint32_t got_version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  h.get(got_magic);
  h.get(got_version);
  h.get(payload_size);
  h.get(checksum);
  if (got_magic != magic) {
    return u::Status::data_loss("bad " + kind + " magic");
  }
  if (got_version != version) {
    return u::Status::data_loss("unsupported " + kind + " version " +
                                std::to_string(got_version));
  }
  if (payload_size > kMaxPayloadBytes) {
    return u::Status::data_loss("implausible " + kind + " payload size");
  }
  if (bytes.size() - kEnvelopeBytes < payload_size) {
    return u::Status::data_loss(
        kind + " payload truncated: " +
        std::to_string(bytes.size() - kEnvelopeBytes) + " of " +
        std::to_string(payload_size) + " bytes");
  }
  if (bytes.size() - kEnvelopeBytes > payload_size) {
    return u::Status::data_loss(kind + " has trailing bytes");
  }
  const std::string_view payload = bytes.substr(kEnvelopeBytes, payload_size);
  if (u::fnv1a64(payload) != checksum) {
    return u::Status::data_loss(kind + " checksum mismatch");
  }
  return payload;
}

/// Bytes put_store_records appends for records [from, store.size()).
std::size_t store_records_size(const EntityStore& store, std::size_t from,
                               bool has_sigs) {
  std::size_t bytes = 0;
  for (std::size_t i = from; i < store.size(); ++i) {
    bytes += wire::record_size(store.records()[i]) + sizeof(std::uint32_t);
    if (has_sigs) {
      bytes += wire::signatures_size(store.signatures()[i]);
    }
  }
  return bytes;
}

/// A segment's record body: each record, its entity id and (when kept)
/// its signatures.
void put_store_records(std::string& out, const EntityStore& store,
                       std::size_t from, bool has_sigs) {
  for (std::size_t i = from; i < store.size(); ++i) {
    put_record(out, store.records()[i]);
    put<std::uint32_t>(out, store.entity_ids()[i]);
    if (has_sigs) {
      put_signatures(out, store.signatures()[i]);
    }
  }
}

/// from_batches, to_batches, from_record, entity_total, has_sigs, count.
constexpr std::size_t kSegmentHeaderBytes =
    3 * sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint8_t) +
    sizeof(std::uint64_t);

/// The one segment parser, behind decode_segment, verify_segment and
/// recovery.  Opens the envelope, hands the header to `start(header)`,
/// which may refuse it with a status, then parses the records in order
/// into buffers it reuses, handing each to `visit(record, entity, sigs)`
/// (`sigs` is unset when the segment keeps none; visit may move out of
/// both).  kDataLoss on exactly what a load rejects: a bad envelope or
/// checksum, a malformed header, record or signature block, an entity id
/// >= the entity total, and trailing bytes.
template <typename Start, typename Visit>
u::Result<SegmentHeader> parse_segment(std::string_view bytes, Start&& start,
                                       Visit&& visit) {
  auto payload =
      open_envelope(bytes, kSegmentMagic, kSegmentVersion, "segment");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  SegmentHeader header;
  std::uint8_t has_sigs = 0;
  if (!r.get(header.from_batches) || !r.get(header.to_batches) ||
      !r.get(header.from_record) || !r.get(header.entity_total) ||
      !r.get(has_sigs) ||
      !r.get_count(header.records, wire::kMinRecordBytes)) {
    return u::Status::data_loss("segment payload header malformed");
  }
  header.has_sigs = has_sigs != 0;
  if (u::Status accepted = start(header); !accepted.ok()) {
    return accepted;
  }
  PersonRecord rec;
  RecordSignatures sigs;
  for (std::uint64_t i = 0; i < header.records; ++i) {
    std::uint32_t entity = 0;
    if (!get_record(r, rec) || !r.get(entity)) {
      return u::Status::data_loss("segment record " + std::to_string(i) +
                                  " malformed");
    }
    if (entity >= header.entity_total) {
      return u::Status::data_loss(
          "segment record " + std::to_string(i) + " names entity " +
          std::to_string(entity) + " >= entity total " +
          std::to_string(header.entity_total));
    }
    if (header.has_sigs && !get_signatures(r, sigs)) {
      return u::Status::data_loss("segment signatures " + std::to_string(i) +
                                  " malformed");
    }
    visit(rec, entity, sigs);
  }
  if (!r.done()) {
    return u::Status::data_loss("segment payload has trailing bytes");
  }
  return header;
}

/// Parses `bytes` and, once `check(header)` accepts its header, appends
/// its records, entity ids and (when kept) signatures to `out`.
template <typename Check>
u::Result<SegmentHeader> append_segment(std::string_view bytes, Segment& out,
                                        Check&& check) {
  bool has_sigs = false;
  return parse_segment(
      bytes,
      [&](const SegmentHeader& h) {
        if (u::Status accepted = check(h); !accepted.ok()) {
          return accepted;
        }
        has_sigs = h.has_sigs;
        if (out.records.empty()) {
          const auto n = static_cast<std::size_t>(h.records);
          out.records.reserve(n);
          out.entity_ids.reserve(n);
          if (has_sigs) {
            out.signatures.reserve(n);
          }
        }
        return u::Status{};
      },
      [&](PersonRecord& rec, std::uint32_t entity, RecordSignatures& sigs) {
        out.records.push_back(std::move(rec));
        out.entity_ids.push_back(entity);
        if (has_sigs) {
          out.signatures.push_back(sigs);
        }
      });
}

u::Status accept_any(const SegmentHeader&) { return {}; }

}  // namespace

// --- segments ----------------------------------------------------------

std::string encode_segment(const EntityStore& store, std::size_t from_record,
                           std::uint64_t from_batches,
                           std::uint64_t to_batches) {
  const bool has_sigs =
      store.uses_fbf() && store.signatures().size() == store.records().size();
  std::string payload;
  payload.reserve(kSegmentHeaderBytes +
                  store_records_size(store, from_record, has_sigs));
  put<std::uint64_t>(payload, from_batches);
  put<std::uint64_t>(payload, to_batches);
  put<std::uint64_t>(payload, from_record);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(store.entity_count()));
  put<std::uint8_t>(payload, has_sigs ? 1 : 0);
  put<std::uint64_t>(payload, store.size() - from_record);
  put_store_records(payload, store, from_record, has_sigs);
  return seal_envelope(kSegmentMagic, kSegmentVersion, payload);
}

u::Result<Segment> decode_segment(std::string_view bytes) {
  Segment seg;
  auto header = append_segment(bytes, seg, accept_any);
  if (!header.ok()) {
    return header.status();
  }
  seg.header = header.value();
  return seg;
}

u::Result<SegmentHeader> verify_segment(std::string_view bytes) {
  return parse_segment(bytes, accept_any,
                       [](PersonRecord&, std::uint32_t, RecordSignatures&) {});
}

// --- manifest ----------------------------------------------------------

std::string encode_manifest(const SnapshotManifest& manifest) {
  std::string payload;
  put<std::uint32_t>(payload,
                     static_cast<std::uint32_t>(manifest.segments.size()));
  for (const auto& seg : manifest.segments) {
    put_string(payload, seg.blob);
    put<std::uint64_t>(payload, seg.from_batches);
    put<std::uint64_t>(payload, seg.to_batches);
    put<std::uint64_t>(payload, seg.from_record);
    put<std::uint64_t>(payload, seg.to_record);
  }
  return seal_envelope(kManifestMagic, kManifestVersion, payload);
}

u::Result<SnapshotManifest> decode_manifest(std::string_view bytes) {
  auto payload =
      open_envelope(bytes, kManifestMagic, kManifestVersion, "manifest");
  if (!payload.ok()) {
    return payload.status();
  }
  Reader r{payload.value()};
  SnapshotManifest manifest;
  std::uint32_t n_segments = 0;
  if (!r.get_count(n_segments,
                   sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t))) {
    return u::Status::data_loss("manifest payload malformed");
  }
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    SnapshotManifest::Entry seg;
    if (!r.get_string(seg.blob) || !r.get(seg.from_batches) ||
        !r.get(seg.to_batches) || !r.get(seg.from_record) ||
        !r.get(seg.to_record)) {
      return u::Status::data_loss("manifest segment " + std::to_string(i) +
                                  " malformed");
    }
    // The chain must be contiguous from 0/0: each segment starts exactly
    // where the previous coverage ended, in batches AND records.
    if (seg.from_batches != batches || seg.from_record != records ||
        seg.to_batches < seg.from_batches ||
        seg.to_record < seg.from_record) {
      return u::Status::data_loss("manifest segment " + std::to_string(i) +
                                  " breaks the coverage chain");
    }
    batches = seg.to_batches;
    records = seg.to_record;
    manifest.segments.push_back(std::move(seg));
  }
  if (!r.done()) {
    return u::Status::data_loss("manifest payload has trailing bytes");
  }
  return manifest;
}

// --- journal -----------------------------------------------------------

std::string encode_journal_frame(std::uint64_t seq,
                                 std::span<const PersonRecord> batch) {
  const std::string payload = wire::encode_record_list(batch);
  std::string frame;
  put<std::uint32_t>(frame, kFrameMagic);
  put<std::uint64_t>(frame, seq);
  put<std::uint64_t>(frame, payload.size());
  put<std::uint64_t>(frame, u::fnv1a64(payload));
  frame += payload;
  return frame;
}

JournalReplay replay_journal(std::string_view bytes) {
  JournalReplay replay;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t left = bytes.size() - pos;
    if (left < 28) {
      replay.dropped_tail_bytes += left;  // 0 at a clean end
      return replay;
    }
    Reader h{bytes.substr(pos, 28)};
    std::uint32_t magic = 0;
    std::uint64_t seq = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    h.get(magic);
    h.get(seq);
    h.get(payload_size);
    h.get(checksum);
    if (magic != kFrameMagic || payload_size > kMaxPayloadBytes ||
        left - 28 < payload_size) {
      replay.dropped_tail_bytes += left;
      return replay;  // damaged/cut frame: stop at the intact prefix
    }
    const std::string_view payload = bytes.substr(pos + 28, payload_size);
    if (u::fnv1a64(payload) != checksum) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    auto batch = wire::decode_record_list(payload);
    if (!batch.ok()) {
      replay.dropped_tail_bytes += left;
      return replay;
    }
    replay.frames.push_back({seq, std::move(batch.value())});
    pos += 28 + payload_size;
  }
}

// --- durable store -----------------------------------------------------

DurableEntityStore::DurableEntityStore(
    ComparatorConfig comparator,
    std::shared_ptr<storage::StorageBackend> backend, DurabilityPolicy policy)
    : comparator_(comparator),
      backend_(std::move(backend)),
      policy_(std::move(policy)),
      store_(std::move(comparator)) {}

DurableEntityStore::~DurableEntityStore() {
  if (journal_ != nullptr && !crashed_) {
    (void)journal_->sync();  // best effort: close the durability window
  }
}

void DurableEntityStore::simulate_crash() {
  journal_.reset();  // pending (unsynced) appends die with the "process"
  crashed_ = true;
}

u::Status DurableEntityStore::ensure_journal() {
  if (journal_ != nullptr) {
    return {};
  }
  auto handle = backend_->open_append(policy_.journal_ref(),
                                      /*truncate=*/false);
  if (!handle.ok()) {
    return handle.status();
  }
  journal_ = std::move(handle.value());
  return {};
}

u::Status DurableEntityStore::sync_journal() {
  if (journal_ == nullptr || pending_appends_ == 0) {
    return {};
  }
  u::Status synced = journal_->sync();
  ++stats_.journal_syncs;
  if (!synced.ok()) {
    stats_.last_error = synced.to_string();
    return synced;
  }
  pending_appends_ = 0;
  return {};
}

u::Result<IngestStats> DurableEntityStore::ingest(
    std::span<const PersonRecord> batch) {
  if (crashed_) {
    return u::Status::failed_precondition(
        "store crashed (simulate_crash); recover through a fresh instance");
  }
  // Write-ahead: the frame enters the journal before the store mutates,
  // so a crash between the two replays the batch instead of losing it.
  // Under group commit the frame may sit unsynced for up to
  // (max_batch - 1) further appends or max_delay_ms — the configured
  // durability window.
  {
    u::Status opened = ensure_journal();
    if (!opened.ok()) {
      return opened;
    }
    const std::string frame = encode_journal_frame(batches_ingested_, batch);
    std::size_t write_size = frame.size();
    if (auto* faults = backend_->faults()) {
      // Pre-storage-layer fault site, kept keyed exactly as before:
      // (site "journal", sequence = batch position).
      write_size =
          faults->truncated_size(frame.size(), "journal", batches_ingested_);
    }
    u::Status appended = journal_->append(
        std::string_view(frame).substr(0, write_size));
    if (!appended.ok()) {
      return appended;
    }
    ++stats_.journal_appends;
    if (pending_appends_ == 0) {
      pending_since_ms_ = steady_ms();
    }
    ++pending_appends_;
    if (write_size != frame.size()) {
      // The injected crash cut the append short: force it to disk and
      // treat the writer as dead — callers recover() to continue.
      (void)sync_journal();
      crashed_ = true;
      return u::Status::unavailable(
          "journal append truncated (injected crash) at seq " +
          std::to_string(batches_ingested_));
    }
    const bool batch_full =
        pending_appends_ >= std::max<std::size_t>(1, policy_.group_commit.max_batch);
    const bool timer_due =
        policy_.group_commit.max_delay_ms > 0.0 &&
        steady_ms() - pending_since_ms_ >= policy_.group_commit.max_delay_ms;
    if (batch_full || timer_due) {
      u::Status synced = sync_journal();
      if (!synced.ok()) {
        // A torn sync is the modeled crash: acknowledged-but-unsynced
        // batches inside the group-commit window are gone; recovery
        // replays the durable prefix.
        crashed_ = synced.code() == u::StatusCode::kUnavailable;
        return synced;
      }
    }
  }
  IngestStats stats = store_.ingest(batch);
  ++batches_ingested_;
  if (policy_.checkpoint_every > 0 &&
      batches_ingested_ - last_checkpoint_batch_ >= policy_.checkpoint_every) {
    u::Status checked = checkpoint();
    if (!checked.ok()) {
      // Degrade: journal intact, nothing lost.  last_checkpoint_batch_
      // stays put, so the VERY NEXT batch retries instead of waiting out
      // another full interval against a possibly-recovered backend.
      ++stats_.checkpoint_failures;
      stats_.last_error = checked.to_string();
    }
  }
  return stats;
}

u::Status DurableEntityStore::checkpoint() {
  const std::uint64_t to_batches = batches_ingested_;
  const bool have_chain = !manifest_.segments.empty();
  if (have_chain && manifest_.batches_covered() == to_batches &&
      manifest_.records_covered() == store_.size()) {
    return {};  // nothing new since the last checkpoint
  }
  // Rewrite the chain as one segment from record 0 when none exists yet,
  // or when compaction triggers: by count (compact_every segments after
  // the first) or by size (those segments together out-weigh the first,
  // so folding halves recovery's read volume).
  const std::uint64_t first_records =
      have_chain ? manifest_.segments.front().to_record : 0;
  const bool count_trigger = policy_.compact_every > 0 &&
                             manifest_.segments.size() > policy_.compact_every;
  const bool size_trigger = first_records > 0 &&
                            store_.size() - first_records >= first_records;
  const bool compact = !have_chain || count_trigger || size_trigger;

  SnapshotManifest next = compact ? SnapshotManifest{} : manifest_;
  const std::uint64_t from_batches = next.batches_covered();
  const std::uint64_t from_record = next.records_covered();
  const storage::BlobRef blob = policy_.segment_ref(from_batches, to_batches);
  std::string bytes =
      encode_segment(store_, static_cast<std::size_t>(from_record),
                     from_batches, to_batches);
  next.segments.push_back(
      {blob.name, from_batches, to_batches, from_record, store_.size()});
  if (auto* faults = backend_->faults()) {
    (void)faults->corrupt_bytes(bytes, "snapshot", to_batches);
  }
  u::Status putted = backend_->put(blob, bytes);
  if (!putted.ok()) {
    return putted;
  }
  // Verify the bytes that actually landed before the manifest or the
  // journal is touched — a corrupt/lost/torn checkpoint must cost
  // nothing.
  {
    auto landed = backend_->get(blob);
    const u::Status verified = landed.ok()
                                   ? verify_segment(landed.value()).status()
                                   : landed.status();
    if (!verified.ok()) {
      (void)backend_->remove(blob);
      return verified;
    }
  }
  // Atomic manifest swap, then verify it landed intact; a manifest the
  // backend lost or tore would orphan the whole chain, so a failed
  // verify restores the previous manifest and reports the checkpoint
  // failed.
  u::Status mput = backend_->put(policy_.manifest_ref(), encode_manifest(next));
  if (mput.ok()) {
    auto mback = backend_->get(policy_.manifest_ref());
    if (!mback.ok()) {
      mput = mback.status();
    } else {
      mput = decode_manifest(mback.value()).status();
    }
  }
  if (!mput.ok()) {
    (void)backend_->remove(blob);
    if (have_chain) {
      (void)backend_->put(policy_.manifest_ref(), encode_manifest(manifest_));
    } else {
      (void)backend_->remove(policy_.manifest_ref());
    }
    return mput;
  }
  // The chain now covers every journaled batch: reset the journal.
  // Pending unsynced appends are covered by the checkpoint, so dropping
  // the old handle loses nothing.  A journal that cannot be reset is
  // non-fatal — replay skips covered frames — but gets recorded.
  journal_.reset();
  pending_appends_ = 0;
  auto fresh = backend_->open_append(policy_.journal_ref(), /*truncate=*/true);
  if (fresh.ok()) {
    journal_ = std::move(fresh.value());
  } else {
    stats_.last_error = fresh.status().to_string();
  }
  manifest_ = std::move(next);
  last_checkpoint_batch_ = to_batches;
  ++stats_.checkpoints;
  if (compact && have_chain) {
    ++stats_.compactions;
  }
  sweep_unreferenced_blobs();
  return {};
}

void DurableEntityStore::sweep_unreferenced_blobs() {
  std::set<std::string> live;
  for (const auto& seg : manifest_.segments) {
    live.insert(seg.blob);
  }
  auto blobs = backend_->list(policy_.prefix + "seg-");
  if (!blobs.ok()) {
    return;  // best effort: orphans cost space, not correctness
  }
  for (const auto& ref : blobs.value()) {
    if (live.find(ref.name) == live.end()) {
      (void)backend_->remove(ref);
    }
  }
}

u::Result<RecoveryReport> DurableEntityStore::recover() {
  RecoveryReport report;
  SnapshotManifest manifest;
  {
    auto bytes = backend_->get(policy_.manifest_ref());
    if (bytes.ok()) {
      auto decoded = decode_manifest(bytes.value());
      if (!decoded.ok()) {
        return decoded.status();  // present-but-damaged manifest: data loss
      }
      manifest = std::move(decoded.value());
    } else if (bytes.status().code() != u::StatusCode::kNotFound) {
      return bytes.status();
    }
  }
  // The segments in manifest order, accumulated into one restore.  Each
  // must match its entry on all four bounds; decode_manifest already
  // checked that the entries chain from 0/0 without gap or overlap.
  Segment chain;
  for (const auto& entry : manifest.segments) {
    auto bytes = backend_->get(storage::BlobRef{entry.blob});
    if (!bytes.ok()) {
      return u::Status::data_loss("manifest names missing segment blob " +
                                  entry.blob + ": " +
                                  bytes.status().message());
    }
    auto header = append_segment(
        bytes.value(), chain, [&](const SegmentHeader& h) {
          if (h.from_batches != entry.from_batches ||
              h.to_batches != entry.to_batches ||
              h.from_record != entry.from_record ||
              h.to_record() != entry.to_record) {
            return u::Status::data_loss("segment blob " + entry.blob +
                                        " disagrees with its manifest entry");
          }
          return u::Status{};
        });
    if (!header.ok()) {
      return header.status();
    }
    chain.header = header.value();
    ++report.segments_applied;
  }
  if (chain.signatures.size() != chain.records.size()) {
    // Mixed sig coverage across segments cannot be restored verbatim;
    // drop and let the store recompute what the comparator needs.
    chain.signatures.clear();
  }
  EntityStore fresh(comparator_);
  u::Status restored = fresh.restore(
      std::move(chain.records), std::move(chain.entity_ids),
      chain.header.entity_total, std::move(chain.signatures));
  if (!restored.ok()) {
    return u::Status::data_loss("checkpoint chain inconsistent: " +
                                restored.message());
  }
  std::uint64_t position = manifest.batches_covered();
  // Journal tail replay on top of the checkpoint chain.
  {
    auto bytes = backend_->get(policy_.journal_ref());
    if (!bytes.ok() && bytes.status().code() != u::StatusCode::kNotFound) {
      return bytes.status();
    }
    if (bytes.ok()) {
      JournalReplay replay = replay_journal(bytes.value());
      report.dropped_tail_bytes = replay.dropped_tail_bytes;
      std::vector<const JournalFrame*> replayed;
      for (const JournalFrame& frame : replay.frames) {
        if (frame.seq < position) {
          ++report.journal_batches_skipped;  // covered by the checkpoint
          continue;
        }
        if (frame.seq != position) {
          // Acknowledged batches [position, seq) are in neither the
          // chain nor the journal (a lost checkpoint, or a directory
          // in a format this reader does not know): refuse to load.
          return u::Status::data_loss(
              "journal resumes at batch " + std::to_string(frame.seq) +
              " but the checkpoint chain covers " +
              std::to_string(position) + " batches");
        }
        (void)fresh.ingest(frame.batch);
        replayed.push_back(&frame);
        ++position;
        ++report.journal_batches_replayed;
      }
      // The write-ahead guarantee needs the durable journal to be
      // exactly the replayed frames: append() continues after whatever
      // is there, and replay stops at the first damaged frame — so a
      // damaged tail or pre-checkpoint leftovers left in place would
      // strand every batch appended after them on the next recovery.
      // Rewrite (atomic put) before accepting ingests.
      if (report.dropped_tail_bytes > 0 ||
          replayed.size() != replay.frames.size()) {
        std::string rewritten;
        for (const JournalFrame* frame : replayed) {
          rewritten += encode_journal_frame(frame->seq, frame->batch);
        }
        u::Status swapped = backend_->put(policy_.journal_ref(), rewritten);
        if (!swapped.ok()) {
          return swapped;
        }
      }
    }
  }
  journal_.reset();  // reopen lazily, appending after the replayed prefix
  pending_appends_ = 0;
  crashed_ = false;
  store_ = std::move(fresh);
  last_checkpoint_batch_ = manifest.batches_covered();
  manifest_ = std::move(manifest);
  batches_ingested_ = position;
  report.batches_ingested = position;
  return report;
}

}  // namespace fbf::linkage
