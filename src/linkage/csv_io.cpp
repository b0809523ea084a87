#include "linkage/csv_io.hpp"

#include <cstdlib>
#include <utility>

namespace fbf::linkage {

namespace u = fbf::util;

const std::vector<std::string>& person_csv_header() {
  static const std::vector<std::string> kHeader = {
      "id",     "first_name", "last_name", "address",
      "phone",  "gender",     "ssn",       "birth_date"};
  return kHeader;
}

void write_person_csv(std::ostream& out,
                      std::span<const PersonRecord> records) {
  u::write_csv_row(out, person_csv_header());
  for (const PersonRecord& r : records) {
    u::write_csv_row(out, {std::to_string(r.id), r.first_name, r.last_name,
                           r.address, r.phone, r.gender, r.ssn,
                           r.birth_date});
  }
}

namespace {

/// Parses one data row into `out`; returns the rejection reason on
/// failure.
std::string parse_person_row(u::CsvRow& row, PersonRecord& out) {
  if (row.size() < 8) {
    return "expected >= 8 columns, got " + std::to_string(row.size());
  }
  char* end = nullptr;
  const unsigned long long id = std::strtoull(row[0].c_str(), &end, 10);
  if (end == row[0].c_str() || *end != '\0') {
    return "non-numeric id '" + row[0] + "'";
  }
  out.id = id;
  out.first_name = std::move(row[1]);
  out.last_name = std::move(row[2]);
  out.address = std::move(row[3]);
  out.phone = std::move(row[4]);
  out.gender = std::move(row[5]);
  out.ssn = std::move(row[6]);
  out.birth_date = std::move(row[7]);
  return {};
}

/// Doubled-delimiter triage: an export that doubles a separator ("a,,b")
/// inserts one spurious empty cell and shifts every later cell right, so
/// the row grows one column per doubling.  When a row that failed to
/// parse has more than 8 columns and *exactly* as many empty cells as
/// surplus columns, dropping the empties restores the original shape
/// unambiguously; any other empty-cell count could be legitimately
/// missing data, so the row stays quarantined for the operator.  Returns
/// true and fills `out` when the repaired row parses.
bool try_repair_doubled_delimiters(const u::CsvRow& row, PersonRecord& out) {
  if (row.size() <= 8) {
    return false;
  }
  const std::size_t surplus = row.size() - 8;
  std::size_t empties = 0;
  for (const std::string& cell : row) {
    empties += cell.empty() ? 1u : 0u;
  }
  if (empties != surplus) {
    return false;
  }
  u::CsvRow repaired;
  repaired.reserve(8);
  for (const std::string& cell : row) {
    if (!cell.empty()) {
      repaired.push_back(cell);
    }
  }
  return parse_person_row(repaired, out).empty();
}

bool all_digits(const std::string& s) noexcept {
  if (s.empty()) {
    return false;
  }
  for (const char ch : s) {
    if (ch < '0' || ch > '9') {
      return false;
    }
  }
  return true;
}

bool digits_or_empty(const std::string& s, std::size_t len) noexcept {
  return s.empty() || (s.size() == len && all_digits(s));
}

/// Format-constrained field shapes a repaired row must satisfy.  Names
/// and addresses are free text (no constraint); the id must be numeric
/// and the phone/gender/ssn/birth-date columns carry fixed shapes, which
/// is what makes a merged-cell split point *detectable*: a wrong split
/// shifts the digit-length fields onto the wrong columns and fails here.
bool plausible_person_shape(const u::CsvRow& row) noexcept {
  return row.size() == 8 && all_digits(row[0]) &&
         digits_or_empty(row[4], 10) && row[5].size() <= 1 &&
         digits_or_empty(row[6], 9) && digits_or_empty(row[7], 8);
}

/// Shifted-column triage: a dropped delimiter fuses two adjacent cells
/// ("m,123456780" -> "m123456780"), so the row comes up exactly one
/// column short and every later cell shifts left.  Try every (cell,
/// split-point) candidate; accept only when all shape-valid candidates
/// agree on one repaired row.  Free-text merges (first+last name) admit
/// many split points and stay quarantined — ambiguity is never guessed
/// away.
bool try_repair_shifted_column(const u::CsvRow& row, PersonRecord& out) {
  if (row.size() != 7) {
    return false;  // only a deficit of exactly one delimiter is decidable
  }
  u::CsvRow winner;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::string& cell = row[i];
    for (std::size_t split = 0; split <= cell.size(); ++split) {
      u::CsvRow candidate;
      candidate.reserve(8);
      for (std::size_t j = 0; j < i; ++j) {
        candidate.push_back(row[j]);
      }
      candidate.push_back(cell.substr(0, split));
      candidate.push_back(cell.substr(split));
      for (std::size_t j = i + 1; j < row.size(); ++j) {
        candidate.push_back(row[j]);
      }
      if (!plausible_person_shape(candidate)) {
        continue;
      }
      if (winner.empty()) {
        winner = std::move(candidate);
      } else if (candidate != winner) {
        return false;  // two distinct plausible parses: ambiguous
      }
    }
  }
  if (winner.empty()) {
    return false;
  }
  return parse_person_row(winner, out).empty();
}

/// Shared loader; with `stop_on_first_bad` the scan ends at the first
/// quarantined row (strict callers throw it away anyway — no point
/// parsing, and allocating, the rest of a large dirty file).
u::Result<PersonCsvLoad> load_person_csv(std::istream& in,
                                         bool stop_on_first_bad) {
  PersonCsvLoad load;
  u::CsvRowReader reader(in);
  bool header = true;
  while (auto row = reader.next()) {
    if (header) {
      header = false;
      continue;
    }
    ++load.rows_read;
    PersonRecord r;
    std::string reason = parse_person_row(*row, r);
    if (reason.empty()) {
      load.records.push_back(std::move(r));
    } else if (try_repair_doubled_delimiters(*row, r)) {
      // parse_person_row only moves cells out after every check passes,
      // so a failed row is intact for the repair attempt.
      ++load.repaired;
      load.records.push_back(std::move(r));
    } else {
      load.quarantined.push_back(
          {reader.row_line(), std::move(reason), std::move(*row)});
      if (stop_on_first_bad) {
        break;
      }
    }
  }
  if (in.bad()) {
    return u::Status::io_error("stream failed after line " +
                               std::to_string(reader.row_line()));
  }
  return load;
}

}  // namespace

u::Result<PersonRecord> parse_person_csv_row(const u::CsvRow& row) {
  u::CsvRow copy = row;  // parse_person_row moves cells out on success
  PersonRecord r;
  if (std::string reason = parse_person_row(copy, r); !reason.empty()) {
    return u::Status::invalid_argument(std::move(reason));
  }
  return r;
}

CsvRepairKind repair_person_csv_row(const u::CsvRow& row, PersonRecord& out) {
  if (try_repair_doubled_delimiters(row, out)) {
    return CsvRepairKind::kDoubledDelimiter;
  }
  if (try_repair_shifted_column(row, out)) {
    return CsvRepairKind::kShiftedColumn;
  }
  return CsvRepairKind::kNone;
}

u::Result<PersonCsvLoad> read_person_csv_quarantine(std::istream& in) {
  return load_person_csv(in, /*stop_on_first_bad=*/false);
}

u::Result<std::vector<PersonRecord>> read_person_csv(
    std::istream& in, bool strict, std::vector<QuarantinedRow>* quarantine) {
  auto result = load_person_csv(in, /*stop_on_first_bad=*/strict);
  if (!result.ok()) {
    return result.status();
  }
  PersonCsvLoad& load = result.value();
  if (strict && !load.quarantined.empty()) {
    const QuarantinedRow& bad = load.quarantined.front();
    return u::Status::invalid_argument("person CSV line " +
                                      std::to_string(bad.line) + ": " +
                                      bad.reason);
  }
  if (quarantine != nullptr) {
    *quarantine = std::move(load.quarantined);
  }
  return std::move(load.records);
}

}  // namespace fbf::linkage
