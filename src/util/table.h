// ASCII table / CSV reporters used by the bench harness to print the rows
// and series the paper's tables and figures report.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace tc::util {

class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  void print(std::ostream& os) const;
  void print_csv(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// snprintf-based helper (GCC 12 has no std::format).
std::string format_double(double v, int precision);

}  // namespace tc::util
