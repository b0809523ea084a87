#include "util/csv.hpp"

namespace fbf::util {

std::optional<CsvRow> CsvRowReader::next() {
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool any_char = false;
  const std::size_t start_line = next_line_;
  int ch;
  while ((ch = in_.get()) != std::istream::traits_type::eof()) {
    any_char = true;
    const char c = static_cast<char>(ch);
    if (c == '\n') {
      ++next_line_;
    }
    if (in_quotes) {
      if (c == '"') {
        if (in_.peek() == '"') {
          field.push_back('"');
          in_.get();
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        row.push_back(std::move(field));
        field.clear();
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        row.push_back(std::move(field));
        row_line_ = start_line;
        return row;
      default:
        field.push_back(c);
        break;
    }
  }
  if (!any_char) {
    return std::nullopt;
  }
  row.push_back(std::move(field));
  row_line_ = start_line;
  return row;
}

std::optional<CsvRow> read_csv_row(std::istream& in) {
  CsvRowReader reader(in);
  return reader.next();
}

std::vector<CsvRow> read_csv(std::istream& in, bool skip_header) {
  std::vector<CsvRow> rows;
  bool first = true;
  while (auto row = read_csv_row(in)) {
    if (first && skip_header) {
      first = false;
      continue;
    }
    first = false;
    rows.push_back(std::move(*row));
  }
  return rows;
}

std::string csv_escape(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') {
      out.push_back('"');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void write_csv_row(std::ostream& out, const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) {
      out << ',';
    }
    out << csv_escape(row[i]);
  }
  out << '\n';
}

}  // namespace fbf::util
