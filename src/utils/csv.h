// Small CSV reader/writer used for loading external MTS data and dumping
// benchmark series.

#ifndef IMDIFF_UTILS_CSV_H_
#define IMDIFF_UTILS_CSV_H_

#include <string>
#include <vector>

namespace imdiff {

// Parses a CSV file of floats into rows. `skip_header` drops the first line.
// Aborts on an unreadable file, and on a cell that is not one number (empty,
// text, trailing junk), naming path:line:column.
std::vector<std::vector<float>> ReadCsv(const std::string& path,
                                        bool skip_header);

// Writes rows of floats as CSV, with an optional header line.
void WriteCsv(const std::string& path, const std::vector<std::string>& header,
              const std::vector<std::vector<float>>& rows);

// Splits one CSV line on commas (no quoting support; data files are numeric).
std::vector<std::string> SplitCsvLine(const std::string& line);

}  // namespace imdiff

#endif  // IMDIFF_UTILS_CSV_H_
