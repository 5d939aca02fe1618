// Seeded input generators for the three workloads. Each returns the
// text fedshare parses itself (config INI or event lines); the
// benchmark never hands the program a pre-built object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One report input: the config text, plus each facility's type index
/// when the federation is built from types (empty otherwise).
struct ReportInput {
  std::string text;
  std::vector<int> type_of;
};

/// `count` heterogeneous 6-facility federations at planetlab.ini's
/// scale. No two facilities of one federation share (locations, units,
/// availability); the two demand classes vary per federation.
[[nodiscard]] std::vector<ReportInput> hetero_inputs(std::uint64_t seed,
                                                     std::size_t count);

/// `count` 12-facility federations of two types, six facilities each,
/// at planetlab.ini's scale.
/// Type parameters and demand vary per federation.
[[nodiscard]] std::vector<ReportInput> typed_inputs(std::uint64_t seed,
                                                    std::size_t count);

/// A churn script as event lines. `prefix` sets the demand and joins
/// seven facilities; `suffix` is one outage flap.
/// Both are the same for every seed: they make up the durable log that
/// set-up recovers from, with a checkpoint after the prefix. Each of the
/// `cycles` then visits every facility once, in a seeded order, with an
/// outage flap, a demand update, a leave and a rejoin with newly drawn
/// capacity. Every cycle ends with the same seven names in the roster,
/// so the cycles can be applied in any order after the suffix.
struct ChurnScript {
  std::vector<std::string> prefix;
  std::vector<std::string> suffix;
  std::vector<std::vector<std::string>> cycles;
};

[[nodiscard]] ChurnScript churn_script(std::uint64_t seed, int cycles);

}  // namespace perfbench
