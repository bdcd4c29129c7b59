// Plain-text table rendering for fgsort, the bench mains and the
// examples.  The Figure-8 table prints per-pass rows in the same layout
// as the paper's stacked bars; this renderer keeps them aligned and
// machine-greppable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace fg::util {

/// Column-aligned text table.  Rows may have differing cell counts; short
/// rows are padded.  A row of all "-" cells renders as a rule.
class TextTable {
 public:
  /// Set the header row.
  void header(std::vector<std::string> cells);
  /// Append a data row.
  void row(std::vector<std::string> cells);
  /// Append a horizontal rule.
  void rule();

  /// Render with two spaces between columns, right-aligning cells that
  /// parse as numbers.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format seconds with fixed precision, e.g. "12.345".
std::string fmt_seconds(double secs, int precision = 3);

/// Format a ratio as a percentage, e.g. "81.2%".
std::string fmt_percent(double ratio, int precision = 1);

/// Human-readable byte count, e.g. "64.0 MiB".
std::string fmt_bytes(std::uint64_t bytes);

}  // namespace fg::util
