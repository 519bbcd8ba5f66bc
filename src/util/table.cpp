#include "src/util/table.h"

#include <algorithm>
#include <cstdio>

namespace tc::util {

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void AsciiTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void AsciiTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };

  auto print_sep = [&] {
    os << "+";
    for (std::size_t c = 0; c < header_.size(); ++c)
      os << std::string(width[c] + 2, '-') << "+";
    os << '\n';
  };

  print_sep();
  print_row(header_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

void AsciiTable::print_csv(std::ostream& os) const {
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  for (const auto& row : rows_) print_row(row);
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace tc::util
