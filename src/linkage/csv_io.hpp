// PersonRecord <-> CSV interchange.
//
// The on-disk format mirrors a typical demographic export:
//   id,first_name,last_name,address,phone,gender,ssn,birth_date
// Empty cells mean missing values.  Round-trips losslessly; the reader
// tolerates extra trailing columns (common in real exports).
//
// Real exports are dirty: the quarantine loader never lets one malformed
// row abort a multi-million-row load — bad rows are collected with their
// line numbers and reasons so the operator can fix the export while the
// clean rows proceed through the pipeline.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "linkage/record.hpp"
#include "util/csv.hpp"
#include "util/status.hpp"

namespace fbf::linkage {

/// The canonical CSV header.
[[nodiscard]] const std::vector<std::string>& person_csv_header();

/// Writes records with the header row.
void write_person_csv(std::ostream& out,
                      std::span<const PersonRecord> records);

/// One rejected row: where it was, why, and the raw cells for the report.
struct QuarantinedRow {
  std::size_t line = 0;  ///< 1-based physical line the row started on
  std::string reason;
  fbf::util::CsvRow fields;
};

/// Outcome of a quarantining load.
struct PersonCsvLoad {
  std::vector<PersonRecord> records;
  std::vector<QuarantinedRow> quarantined;
  std::size_t rows_read = 0;  ///< data rows seen (header excluded)
  /// Rows that initially failed to parse but were auto-repaired as
  /// doubled-delimiter damage ("a,,b"): the row had more than 8 columns
  /// and exactly as many empty cells as surplus columns, so dropping the
  /// empties restores the original shape unambiguously.  Repaired rows
  /// land in `records` at their original position (both load modes —
  /// strict accepts them too); ambiguous rows stay quarantined.
  std::size_t repaired = 0;

  [[nodiscard]] bool clean() const noexcept { return quarantined.empty(); }
};

/// Reads records, quarantining malformed rows instead of aborting: every
/// valid row is returned even when bad rows are interleaved.  No exception
/// escapes on malformed *content*; the only error is kIoError when the
/// stream itself fails mid-read.
[[nodiscard]] fbf::util::Result<PersonCsvLoad> read_person_csv_quarantine(
    std::istream& in);

/// Reads records.  `strict` fails with kInvalidArgument naming the line
/// number of the first malformed row; otherwise bad rows are skipped and
/// — when `quarantine` is non-null — reported there with line numbers
/// (previously they vanished silently).  A failing stream is kIoError in
/// either mode.  Never throws.
[[nodiscard]] fbf::util::Result<std::vector<PersonRecord>> read_person_csv(
    std::istream& in, bool strict = true,
    std::vector<QuarantinedRow>* quarantine = nullptr);

/// Strict single-row parse with NO auto-repair: kInvalidArgument names
/// the defect.  The online service's streaming CSV ingest uses this so a
/// damaged row lands in the service quarantine intact; triage (the
/// doubled-delimiter repair below) runs when the operator drains it.
[[nodiscard]] fbf::util::Result<PersonRecord> parse_person_csv_row(
    const fbf::util::CsvRow& row);

/// Which auto-repair family fixed a quarantined row (kNone = the row is
/// legitimately damaged and must stay quarantined for the operator).
enum class CsvRepairKind : std::uint8_t {
  kNone = 0,
  /// Surplus columns with exactly as many empty cells ("a,,b" doubled
  /// delimiter): dropping the empties restores the shape unambiguously.
  kDoubledDelimiter,
  /// Column-count deficit of one with a detectable merged-cell split
  /// point: a dropped delimiter fused two adjacent cells, and exactly one
  /// (cell, split) candidate satisfies the format-constrained field
  /// shapes (numeric id, 10-digit phone, <=1-char gender, 9-digit ssn,
  /// 8-digit birth date).  Free-text merges (first+last name) admit many
  /// split points, so they stay quarantined — the repair never guesses.
  kShiftedColumn,
};

/// Auto-repair triage on one quarantined row: tries the doubled-delimiter
/// repair, then the shifted-column repair, and reports which family (if
/// any) produced an unambiguous parse into `out` (see PersonCsvLoad::
/// repaired for the doubled-delimiter rule, CsvRepairKind::kShiftedColumn
/// for the split-point rule).
[[nodiscard]] CsvRepairKind repair_person_csv_row(const fbf::util::CsvRow& row,
                                                  PersonRecord& out);

}  // namespace fbf::linkage
