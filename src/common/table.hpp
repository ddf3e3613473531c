#pragma once
// Minimal ASCII table formatter used by the benchmark harnesses to print
// paper-style tables (paper-reported values side by side with measured or
// modeled ones).

#include <string>
#include <vector>

namespace f3d {

class Table {
public:
  explicit Table(std::vector<std::string> header);

  /// Append a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);
  /// Format an integer.
  static std::string num(long long v);

  /// Render with column alignment and a header rule.
  [[nodiscard]] std::string to_string() const;

  /// Render directly to stdout.
  void print() const;

private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace f3d
