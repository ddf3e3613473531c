#pragma once
// Tiny CSV writer for benchmark series (figure data), so each bench can
// emit machine-readable output next to its human-readable table.

#include <string>
#include <vector>

namespace f3d::io {

class CsvWriter {
public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(const std::vector<double>& row);

  /// Write to file; throws f3d::Error on failure.
  void write(const std::string& path) const;

  [[nodiscard]] std::string to_string() const;

private:
  std::vector<std::string> header_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace f3d::io
