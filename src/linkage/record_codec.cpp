#include "linkage/record_codec.hpp"

#include "core/signature.hpp"

namespace fbf::linkage::wire {

namespace w = fbf::util::wire;
using fbf::util::Result;
using fbf::util::Status;

void put_record(std::string& out, const PersonRecord& r) {
  w::put<std::uint64_t>(out, r.id);
  for (const RecordField f : all_record_fields()) {
    w::put_string(out, r.field(f));
  }
}

bool get_record(w::Reader& in, PersonRecord& r) {
  if (!in.get(r.id)) {
    return false;
  }
  for (const RecordField f : all_record_fields()) {
    if (!in.get_string(r.field(f))) {
      return false;
    }
  }
  return true;
}

std::size_t record_size(const PersonRecord& r) {
  std::size_t bytes = sizeof(std::uint64_t);
  for (const RecordField f : all_record_fields()) {
    bytes += sizeof(std::uint32_t) + r.field(f).size();
  }
  return bytes;
}

void put_signatures(std::string& out, const RecordSignatures& sigs) {
  for (const fbf::core::Signature& sig : sigs.sigs) {
    w::put<std::uint8_t>(out, static_cast<std::uint8_t>(sig.size()));
    for (const std::uint32_t word : sig.words()) {
      w::put<std::uint32_t>(out, word);
    }
  }
}

std::size_t signatures_size(const RecordSignatures& sigs) {
  std::size_t bytes = 0;
  for (const fbf::core::Signature& sig : sigs.sigs) {
    bytes += sizeof(std::uint8_t) + sig.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

bool get_signatures(w::Reader& in, RecordSignatures& sigs) {
  for (fbf::core::Signature& sig : sigs.sigs) {
    std::uint8_t n = 0;
    if (!in.get(n) || n > fbf::core::Signature::kMaxWords) {
      return false;
    }
    sig = {};
    for (std::uint8_t word_index = 0; word_index < n; ++word_index) {
      std::uint32_t word = 0;
      if (!in.get(word)) {
        return false;
      }
      sig.push(word);
    }
  }
  return true;
}

std::string encode_record_list(std::span<const PersonRecord> records) {
  std::string out;
  w::put<std::uint64_t>(out, records.size());
  for (const PersonRecord& r : records) {
    put_record(out, r);
  }
  return out;
}

Result<std::vector<PersonRecord>> decode_record_list(std::string_view bytes) {
  w::Reader in{bytes};
  std::uint64_t count = 0;
  if (!in.get_count(count, kMinRecordBytes)) {
    return Status::data_loss("record list: truncated count");
  }
  std::vector<PersonRecord> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PersonRecord r;
    if (!get_record(in, r)) {
      return Status::data_loss("record list: truncated record");
    }
    out.push_back(std::move(r));
  }
  if (!in.done()) {
    return Status::data_loss("record list: trailing bytes");
  }
  return out;
}

}  // namespace fbf::linkage::wire
