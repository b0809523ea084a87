// PersonRecord / RecordSignatures byte codec, shared by the snapshot +
// journal files (durability) and the shard link protocol (networking).
// One definition of the record layout means the recovery path and the
// wire path can never disagree about what a serialized record looks like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "linkage/record.hpp"
#include "linkage/record_filter.hpp"
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

}  // namespace fbf::linkage::wire
