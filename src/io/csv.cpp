#include "io/csv.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace f3d::io {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  F3D_CHECK(!header_.empty());
}

void CsvWriter::add_row(const std::vector<double>& row) {
  F3D_CHECK_MSG(row.size() == header_.size(), "CSV row arity mismatch");
  rows_.push_back(row);
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << (c ? "," : "") << header_[c];
  os << "\n";
  char buf[64];
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::snprintf(buf, sizeof buf, "%.12g", row[c]);
      os << (c ? "," : "") << buf;
    }
    os << "\n";
  }
  return os.str();
}

void CsvWriter::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  F3D_CHECK_MSG(f != nullptr, "cannot open " + path);
  const auto s = to_string();
  const std::size_t written = std::fwrite(s.data(), 1, s.size(), f);
  const int rc = std::fclose(f);
  F3D_CHECK_MSG(written == s.size() && rc == 0, "write failure on " + path);
}

}  // namespace f3d::io
