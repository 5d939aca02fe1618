#include "check.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

// fedshare's in_core() tolerance. A verdict whose deciding quantity lies
// within kBand of it cannot be settled from the printed digits, and is
// then not compared.
constexpr double kCoreTol = 1e-6;
constexpr double kBand = 1e-8;

const char* const kSchemes[] = {"shapley", "prop-availability",
                                "prop-consumption", "equal",
                                "nucleolus", "banzhaf"};

struct Row {
  std::vector<double> shares;
  bool in_core = false;
};

struct Parsed {
  std::vector<std::string> names;
  std::vector<double> v;  // by bitmask; v[0] = 0
  std::map<std::string, Row> schemes;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::vector<std::string> words(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string w; in >> w;) out.push_back(w);
  return out;
}

// Index of the first table row under `heading` (heading, underline,
// column header, rule), or lines.size() when the heading is absent.
std::size_t table_start(const std::vector<std::string>& lines,
                        const std::string& heading) {
  for (std::size_t i = 0; i + 3 < lines.size(); ++i) {
    if (lines[i] == heading) return i + 4;
  }
  return lines.size();
}

std::string parse(const std::string& text, int n, Parsed& p) {
  const auto lines = lines_of(text);
  const std::size_t schemes = table_start(lines, "Sharing schemes");
  if (schemes >= lines.size()) return "no Sharing schemes table";
  const auto header = words(lines[schemes - 2]);
  // scheme <n names> in core
  if (static_cast<int>(header.size()) != n + 3) {
    return "scheme table header has " + std::to_string(header.size()) +
           " columns";
  }
  p.names.assign(header.begin() + 1, header.begin() + 1 + n);
  for (std::size_t i = schemes; i < lines.size() && !lines[i].empty(); ++i) {
    const auto w = words(lines[i]);
    if (static_cast<int>(w.size()) != n + 2) return "bad scheme row";
    Row row;
    for (int k = 0; k < n; ++k) row.shares.push_back(std::stod(w[k + 1]));
    if (w.back() != "yes" && w.back() != "no") return "bad core verdict";
    row.in_core = w.back() == "yes";
    p.schemes[w[0]] = row;
  }

  std::map<std::string, int> index;
  for (int k = 0; k < n; ++k) index[p.names[static_cast<std::size_t>(k)]] = k;
  const std::size_t values = table_start(lines, "Coalition values");
  p.v.assign(std::size_t{1} << n, 0.0);
  std::vector<bool> seen(p.v.size(), false);
  for (std::size_t i = values; i < lines.size() && !lines[i].empty(); ++i) {
    const auto w = words(lines[i]);
    if (w.size() != 2) return "bad coalition row";
    std::uint64_t mask = 0;
    std::istringstream label(w[0]);
    for (std::string name; std::getline(label, name, '+');) {
      const auto it = index.find(name);
      if (it == index.end()) return "unknown facility " + name;
      mask |= std::uint64_t{1} << it->second;
    }
    p.v[mask] = std::stod(w[1]);
    seen[mask] = true;
  }
  for (std::size_t mask = 1; mask < seen.size(); ++mask) {
    if (!seen[mask]) return "coalition table misses a coalition";
  }
  return {};
}

// max over proper non-empty coalitions of V(S) - x(S).
double max_violation(const std::vector<double>& v,
                     const std::vector<double>& x, int n) {
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  double worst = -INFINITY;
  for (std::uint64_t mask = 1; mask < full; ++mask) {
    double xs = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask >> i & 1) xs += x[static_cast<std::size_t>(i)];
    }
    worst = std::max(worst, v[mask] - xs);
  }
  return worst;
}

}  // namespace

std::vector<double> subset_shapley(const std::vector<double>& v, int n) {
  // weight[s] = s! (n - s - 1)! / n!
  std::vector<double> weight(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    double w = 1.0 / n;
    // 1 / (n * C(n-1, s))
    for (int k = 1; k <= s; ++k) {
      w *= static_cast<double>(k) / static_cast<double>(n - k);
    }
    weight[static_cast<std::size_t>(s)] = w;
  }
  std::vector<double> phi(static_cast<std::size_t>(n), 0.0);
  const std::uint64_t count = std::uint64_t{1} << n;
  for (std::uint64_t mask = 0; mask < count; ++mask) {
    const int size = __builtin_popcountll(mask);
    for (int i = 0; i < n; ++i) {
      if (mask >> i & 1) continue;
      phi[static_cast<std::size_t>(i)] +=
          weight[static_cast<std::size_t>(size)] *
          (v[mask | std::uint64_t{1} << i] - v[mask]);
    }
  }
  return phi;
}

ReportCheck check_report(const std::string& text, int n,
                         const std::vector<int>& type_of) {
  ReportCheck out;
  std::vector<std::string>& bad = out.bad;
  Parsed p;
  if (const std::string err = parse(text, n, p); !err.empty()) {
    bad.push_back("report does not parse: " + err);
    return out;
  }
  for (const char* scheme : kSchemes) {
    if (p.schemes.count(scheme) == 0) {
      bad.push_back(std::string("scheme missing: ") + scheme);
    }
  }
  if (!bad.empty()) return out;

  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  const double grand = p.v[full];
  if (!(grand > 0.0)) {
    bad.push_back("V(N) is not positive");
    return out;
  }
  const double scale = std::max(1.0, grand);

  // Own Shapley shares from the printed table.
  std::vector<double> shapley = subset_shapley(p.v, n);
  for (double& s : shapley) s /= grand;

  bool& core_nonempty = out.core_nonempty;
  double best_violation = INFINITY;
  for (const char* scheme : kSchemes) {
    const Row& row = p.schemes.at(scheme);
    const std::string who = std::string(scheme) + ": ";
    double sum = 0.0;
    std::vector<double> payoff;
    for (const double s : row.shares) {
      sum += s;
      payoff.push_back(s * grand);
    }
    if (std::abs(sum - 1.0) > 1e-9) {
      bad.push_back(who + "shares sum to " + std::to_string(sum));
    }
    double paid = 0.0;
    for (const double x : payoff) paid += x;
    const double efficiency = std::abs(paid - grand);
    if (efficiency > 1e-9 * scale) {
      bad.push_back(who + "payoffs do not sum to V(N)");
    }

    const double violation = max_violation(p.v, payoff, n);
    const bool mine = efficiency <= kCoreTol && violation <= kCoreTol;
    const bool decidable = std::abs(violation - kCoreTol) > kBand &&
                           std::abs(efficiency - kCoreTol) > kBand;
    if (decidable && mine != row.in_core) {
      bad.push_back(who + "in-core verdict disagrees with x(S) >= V(S)");
    }
    if (mine) {
      core_nonempty = true;
      best_violation = std::min(best_violation, violation);
    }

    if (!type_of.empty()) {
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
          if (type_of[static_cast<std::size_t>(i)] !=
              type_of[static_cast<std::size_t>(j)]) {
            continue;
          }
          const double a = row.shares[static_cast<std::size_t>(i)];
          const double b = row.shares[static_cast<std::size_t>(j)];
          if (std::abs(a - b) > 1e-9 * std::max(std::abs(a), 1e-3)) {
            bad.push_back(who + "unequal shares within a type");
            i = n;
            break;
          }
        }
      }
    }
  }

  const Row& sh = p.schemes.at("shapley");
  for (int i = 0; i < n; ++i) {
    const double mine = shapley[static_cast<std::size_t>(i)];
    const double printed = sh.shares[static_cast<std::size_t>(i)];
    if (std::abs(printed - mine) > 1e-9 * std::abs(mine) + 2e-12) {
      bad.push_back("shapley: share of " +
                    p.names[static_cast<std::size_t>(i)] +
                    " differs from the subset formula");
    }
  }

  // Some scheme's payoff lies in the core, so the core is non-empty and
  // the nucleolus, which minimises the largest excess, must lie in it
  // too: its largest excess is at most that scheme's.
  if (core_nonempty) {
    std::vector<double> nucleolus;
    for (const double s : p.schemes.at("nucleolus").shares) {
      nucleolus.push_back(s * grand);
    }
    if (max_violation(p.v, nucleolus, n) >
        std::max(best_violation, 0.0) + 1e-7 * scale) {
      bad.push_back("nucleolus: outside a non-empty core");
    }
  }
  return out;
}

}  // namespace perfbench
