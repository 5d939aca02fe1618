#include "verify/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/core_solution.hpp"

namespace fedshare::verify {

namespace {

// splitmix64: tiny deterministic generator so the auditor does not pull
// in the sim layer.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void AuditReport::add_issue(std::string check, std::string detail,
                            double magnitude) {
  passed = false;
  if (issues.size() < kMaxIssues) {
    issues.push_back({std::move(check), std::move(detail), magnitude});
  }
}

void AuditReport::add_note(std::string check, std::string detail,
                           double magnitude) {
  if (notes.size() < kMaxIssues) {
    notes.push_back({std::move(check), std::move(detail), magnitude});
  }
}

AuditReport audit_game(const game::Game& g, const VerifyOptions& options) {
  AuditReport report;
  const int n = g.num_players();
  if (n <= 1 || n > 30) return report;
  const std::uint64_t full = (std::uint64_t{1} << n) - 1;
  const double tol = options.tolerance;
  std::uint64_t rng = options.audit_seed;

  for (std::size_t s = 0; s < options.audit_samples; ++s) {
    // Monotonicity on a sampled nested pair S subset T.
    const std::uint64_t t_mask = splitmix64(rng) & full;
    const std::uint64_t s_mask = splitmix64(rng) & t_mask;
    const double vt = g.value(game::Coalition::from_bits(t_mask));
    const double vs = g.value(game::Coalition::from_bits(s_mask));
    ++report.checks;
    if (vs > vt + tol) {
      report.add_issue(
          "monotonicity",
          "V(" + game::Coalition::from_bits(s_mask).to_string() +
              ") > V(" + game::Coalition::from_bits(t_mask).to_string() + ")",
          vs - vt);
    }
    // Superadditivity on a sampled disjoint pair.
    const std::uint64_t a_mask = splitmix64(rng) & full;
    const std::uint64_t b_mask = splitmix64(rng) & full & ~a_mask;
    if (a_mask == 0 || b_mask == 0) continue;
    const double va = g.value(game::Coalition::from_bits(a_mask));
    const double vb = g.value(game::Coalition::from_bits(b_mask));
    const double vu = g.value(game::Coalition::from_bits(a_mask | b_mask));
    ++report.checks;
    if (va + vb > vu + tol) {
      // A true fact, not a failure: overlapping facilities double-count
      // shared capacity until pooled, so V may be subadditive there.
      report.add_note(
          "superadditivity",
          "V(" + game::Coalition::from_bits(a_mask).to_string() + ") + V(" +
              game::Coalition::from_bits(b_mask).to_string() + ") > V(union)",
          va + vb - vu);
    }
  }
  return report;
}

void audit_outcomes(const game::TabularGame& g,
                    const std::vector<game::SchemeOutcome>& outcomes,
                    const lp::SimplexOptions& lp_options,
                    const VerifyOptions& options, AuditReport& report) {
  const int n = g.num_players();
  const double vn = g.grand_value();
  const double tol = options.tolerance * std::max(1.0, std::abs(vn));

  for (const auto& outcome : outcomes) {
    const std::string name = game::to_string(outcome.scheme);
    // Shares sum to 1; payoffs sum to V(N) (efficiency, Eq. 4-7).
    double share_sum = 0.0;
    for (double s : outcome.shares) share_sum += s;
    ++report.checks;
    if (std::abs(share_sum - 1.0) > options.tolerance) {
      report.add_issue("shares:" + name, "shares sum to " +
                           std::to_string(share_sum) + ", expected 1",
                       std::abs(share_sum - 1.0));
    }
    double payoff_sum = 0.0;
    for (double p : outcome.payoffs) payoff_sum += p;
    ++report.checks;
    if (std::abs(payoff_sum - vn) > tol) {
      report.add_issue("efficiency:" + name,
                       "payoffs sum to " + std::to_string(payoff_sum) +
                           ", expected V(N) = " + std::to_string(vn),
                       std::abs(payoff_sum - vn));
    }
    // Core flags agree with a recomputed residual (same n cap as
    // compare_schemes' own check).
    if (n <= 16) {
      const double violation = game::max_core_violation(g, outcome.payoffs);
      const bool efficient = std::abs(payoff_sum - vn) <= tol;
      const bool recomputed = efficient && violation <= options.tolerance;
      ++report.checks;
      if (recomputed != outcome.in_core) {
        report.add_issue("core:" + name,
                         std::string("in_core flag disagrees with residual "
                                     "(max violation ") +
                             std::to_string(violation) + ")",
                         std::abs(violation));
      }
    }
  }

  // Nucleolus excess optimality: its maximum excess must match the
  // least-core epsilon — the first level of the lexicographic minimum.
  // Checked from the raw full-lattice data (the full-lattice least-core
  // LP over every coalition row), so for quotient-computed nucleoli this
  // is an independent certificate that the expanded per-facility
  // allocation is excess-optimal on the whole 2^n lattice, not just on
  // orbit rows.
  // n <= 12 is the full-lattice least-core ceiling. The LP runs on the
  // revised engine whatever engine the report used: its 2^n - 2 rows
  // and n + 1 columns give an almost-all-slack basis, which the sparse
  // basis LU factors in O(nnz) where the dense tableau needs minutes at
  // n = 12.
  if (n >= 2 && n <= 12 && std::abs(vn) > 1e-12) {
    for (const auto& outcome : outcomes) {
      if (outcome.scheme != game::Scheme::kNucleolus) continue;
      lp::SimplexOptions cold = lp_options;
      cold.solver = lp::SolverKind::kRevised;
      cold.observer = nullptr;  // the audit's own solves are not audited
      const auto lc = game::least_core(g, cold);
      if (!lc.solved) break;
      const double excess = game::max_core_violation(g, outcome.payoffs);
      ++report.checks;
      if (excess > lc.epsilon + tol) {
        report.add_issue("nucleolus",
                         "max excess " + std::to_string(excess) +
                             " exceeds least-core epsilon " +
                             std::to_string(lc.epsilon),
                         excess - lc.epsilon);
      }
      break;
    }
  }
}

}  // namespace fedshare::verify
