// Byte-level wire encoding helpers shared by the snapshot/journal files
// and the network frame codec: trivially-copyable values and
// length-prefixed strings appended to a std::string buffer, plus a
// bounds-checked Reader over a received payload.  Host-endian by design —
// both producers are machine-local (a recovery artifact, a loopback
// socket), not interchange formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace fbf::util::wire {

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

inline void put_string(std::string& out, std::string_view s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked reader: every get reports whether the payload actually
/// held the bytes, so a lying length field or truncated buffer surfaces
/// as a clean decode failure, never an out-of-bounds read.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;

  template <typename T>
  bool get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data.size() - pos < sizeof(T)) {
      return false;
    }
    std::memcpy(&value, data.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool get_string(std::string& s) {
    std::uint32_t len = 0;
    if (!get(len) || data.size() - pos < len) {
      return false;
    }
    s.assign(data.data() + pos, len);
    pos += len;
    return true;
  }

  /// Reads an element count (u32 unless the format says otherwise) and
  /// accepts it only if the unread bytes could hold that many elements
  /// of at least `min_bytes_per_elem` (>= 1) bytes each.  A count read
  /// from the wire is never trusted to size an allocation: a lying one
  /// fails here, before any resize or reserve.
  template <typename Count = std::uint32_t>
  bool get_count(Count& n, std::size_t min_bytes_per_elem) {
    static_assert(std::is_unsigned_v<Count>);
    Count raw = 0;
    if (!get(raw) || raw > (data.size() - pos) / min_bytes_per_elem) {
      return false;
    }
    n = raw;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos == data.size(); }
};

}  // namespace fbf::util::wire
