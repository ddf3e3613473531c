#include "common/table.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace f3d {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  F3D_CHECK(!header_.empty());
}

void Table::add_row(std::vector<std::string> row) {
  F3D_CHECK_MSG(row.size() == header_.size(), "row arity mismatch");
  rows_.push_back(std::move(row));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::num(long long v) { return std::to_string(v); }

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      if (r[c].size() > width[c]) width[c] = r[c].size();

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << "| " << r[c];
      for (std::size_t p = r[c].size(); p < width[c]; ++p) os << ' ';
      os << ' ';
    }
    os << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << "|";
    for (std::size_t p = 0; p < width[c] + 2; ++p) os << '-';
  }
  os << "|\n";
  for (const auto& r : rows_) emit_row(r);
  return os.str();
}

void Table::print() const { std::fputs(to_string().c_str(), stdout); }

}  // namespace f3d
