#include "utils/csv.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "utils/check.h"
#include "utils/flags.h"

namespace imdiff {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

std::vector<std::vector<float>> ReadCsv(const std::string& path,
                                        bool skip_header) {
  std::ifstream in(path);
  IMDIFF_CHECK(in.good()) << "cannot open" << path;
  std::vector<std::vector<float>> rows;
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line_number == 1 && skip_header) continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    std::vector<float> row(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      std::string_view cell = cells[c];
      const size_t first = cell.find_first_not_of(" \t");
      cell = first == std::string_view::npos
                 ? std::string_view()
                 : cell.substr(first, cell.find_last_not_of(" \t") + 1 - first);
      IMDIFF_CHECK(ParseNumber(cell, &row[c]))
          << path + ":" + std::to_string(line_number) + ":" +
                 std::to_string(c + 1)
          << "is not a number: '" + cells[c] + "'";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void WriteCsv(const std::string& path, const std::vector<std::string>& header,
              const std::vector<std::vector<float>>& rows) {
  std::ofstream out(path);
  IMDIFF_CHECK(out.good()) << "cannot write" << path;
  // max_digits10 significant digits, so ReadCsv gets every float back exactly.
  out.precision(std::numeric_limits<float>::max_digits10);
  if (!header.empty()) {
    for (size_t i = 0; i < header.size(); ++i) {
      if (i > 0) out << ",";
      out << header[i];
    }
    out << "\n";
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ",";
      out << row[i];
    }
    out << "\n";
  }
}

}  // namespace imdiff
