#include "common/csv.h"

#include <cstdio>
#include <fstream>

namespace p2pdt {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvWriter::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return Status::InvalidArgument("CSV row width " +
                                   std::to_string(row.size()) +
                                   " != header width " +
                                   std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status CsvWriter::AddNumericRow(const std::vector<double>& row) {
  std::vector<std::string> formatted;
  formatted.reserve(row.size());
  for (double v : row) formatted.push_back(CsvNumber(v));
  return AddRow(std::move(formatted));
}

std::string CsvWriter::ToString() const {
  std::string out;
  auto emit_row = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += CsvEscape(row[i]);
    }
    out += '\n';
  };
  emit_row(header_);
  for (const auto& row : rows_) emit_row(row);
  return out;
}

Status CsvWriter::WriteFile(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IOError("cannot open " + path);
  f << ToString();
  if (!f) return Status::IOError("short write to " + path);
  return Status::OK();
}

std::string CsvNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string CsvHex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string CsvEscape(const std::string& field) {
  bool needs_quoting = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace p2pdt
