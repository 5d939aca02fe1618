// Correctness checks on a report's text, computed apart from fedshare:
// the benchmark parses the printed V(S) table and scheme rows and
// re-derives what it can from them with its own code.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct ReportCheck {
  /// One line per violated property; empty when the report passes.
  std::vector<std::string> bad;
  /// Some scheme's payoff lies in the core, so the nucleolus was checked
  /// to lie in it too.
  bool core_nonempty = false;
};

/// Checks one report of an n-facility federation. `type_of` (empty for
/// untyped inputs) gives each facility's type, and shares must then be
/// equal within each type.
[[nodiscard]] ReportCheck check_report(const std::string& text, int n,
                                       const std::vector<int>& type_of);

/// Shapley values of the game with characteristic function `v` (indexed
/// by coalition bitmask, 2^n entries) by the subset formula.
[[nodiscard]] std::vector<double> subset_shapley(const std::vector<double>& v,
                                                 int n);

}  // namespace perfbench
