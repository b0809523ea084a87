// PersonRecord / RecordSignatures byte codec, shared by the checkpoint
// segments and journal (durability) and the shard link and cluster
// replica protocols (networking).
// One definition of the record layout means the recovery path and the
// wire path can never disagree about what a serialized record looks like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "linkage/record.hpp"
#include "linkage/record_filter.hpp"
#include "util/status.hpp"
#include "util/wire.hpp"

namespace fbf::linkage::wire {

/// Smallest encoded record: the u64 id plus one u32 length per field.
/// Decoders pass it to Reader::get_count to bound record counts.
inline constexpr std::size_t kMinRecordBytes =
    sizeof(std::uint64_t) + kRecordFieldCount * sizeof(std::uint32_t);

void put_record(std::string& out, const PersonRecord& r);
[[nodiscard]] bool get_record(fbf::util::wire::Reader& in, PersonRecord& r);
/// Bytes put_record(out, r) appends, so an encoder can size its buffer
/// once.
[[nodiscard]] std::size_t record_size(const PersonRecord& r);

void put_signatures(std::string& out, const RecordSignatures& sigs);
[[nodiscard]] bool get_signatures(fbf::util::wire::Reader& in,
                                  RecordSignatures& sigs);
/// Bytes put_signatures(out, sigs) appends.
[[nodiscard]] std::size_t signatures_size(const RecordSignatures& sigs);

/// A record list: the u64 count, then put_record per record.  It is a
/// journal frame's payload and a cluster replica blob.
[[nodiscard]] std::string encode_record_list(
    std::span<const PersonRecord> records);
/// kDataLoss on a count the bytes cannot hold, a malformed record or
/// trailing bytes.
[[nodiscard]] fbf::util::Result<std::vector<PersonRecord>>
decode_record_list(std::string_view bytes);

}  // namespace fbf::linkage::wire
