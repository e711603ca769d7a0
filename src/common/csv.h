#ifndef P2PDT_COMMON_CSV_H_
#define P2PDT_COMMON_CSV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace p2pdt {

/// Minimal CSV table builder used by the P2PDMT statistics exporter and the
/// benchmark harness to persist experiment series.
///
/// Values containing commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  std::size_t num_columns() const { return header_.size(); }
  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Appends a row; must match the header width.
  Status AddRow(std::vector<std::string> row);

  /// Convenience: formats doubles with CsvNumber.
  Status AddNumericRow(const std::vector<double>& row);

  /// Renders the full table, header first, '\n' line endings.
  std::string ToString() const;

  /// Writes the table to `path`, replacing any existing file.
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a numeric field the way every CSV here does: %.6g.
std::string CsvNumber(double v);

/// Formats a 64-bit fingerprint field: 16 lower-case hex digits.
std::string CsvHex(uint64_t v);

/// Escapes one CSV field per RFC 4180 (quotes only when needed).
std::string CsvEscape(const std::string& field);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_CSV_H_
