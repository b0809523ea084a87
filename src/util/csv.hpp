// Minimal RFC-4180-style CSV parsing and serialization.
//
// Enough CSV for demographic exports: quoted fields, embedded commas,
// doubled quotes, embedded newlines inside quotes, and CRLF tolerance.
// No locale, no type coercion — fields are strings, callers convert.
#pragma once

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace fbf::util {

using CsvRow = std::vector<std::string>;

/// Incremental row reader that tracks physical line numbers, so malformed
/// rows can be reported (and quarantined) by the line a human would open
/// the file at.  Quoted fields may span lines; `row_line()` is the line
/// the row *started* on.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::istream& in) noexcept : in_(in) {}

  /// Next logical record, or nullopt at end of stream.
  [[nodiscard]] std::optional<CsvRow> next();

  /// 1-based physical line where the most recently returned row began.
  [[nodiscard]] std::size_t row_line() const noexcept { return row_line_; }

 private:
  std::istream& in_;
  std::size_t next_line_ = 1;  ///< line of the next unread character
  std::size_t row_line_ = 0;
};

/// Parses one logical CSV record from `in` (may span physical lines when
/// quotes contain newlines).  Returns nullopt at end of stream.
[[nodiscard]] std::optional<CsvRow> read_csv_row(std::istream& in);

/// Parses an entire stream.  `skip_header` drops the first row.
[[nodiscard]] std::vector<CsvRow> read_csv(std::istream& in,
                                           bool skip_header = false);

/// Serializes one row with minimal quoting (quotes only when needed).
void write_csv_row(std::ostream& out, const CsvRow& row);

/// Escapes a single field (exposed for tests).
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace fbf::util
