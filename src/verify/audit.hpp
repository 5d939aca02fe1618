// Game-level auditing: does the cooperative-game pipeline add up?
//
// LP certificates (verify/certificates.hpp) guarantee each *solve* is
// right; the auditor checks the quantities built on top of them:
//
//  * structure  — monotonicity and superadditivity of V on sampled
//    coalition pairs. Monotonicity must hold for an exact allocator (a
//    coalition may always ignore extra resources), so a violation is a
//    failure: either a corrupted value, or the greedy allocator left
//    value on the table for the larger coalition — both distort every
//    sharing rule downstream. Superadditivity holds only when facility
//    location sets are disjoint — overlapping federations double-count
//    shared capacity until pooled — so violations are recorded as
//    informational notes that do not fail the audit;
//  * efficiency — every sharing rule's shares sum to 1 and its payoffs
//    to V(N) (Eq. 4-7 all normalise; a drifting sum corrupts every
//    downstream comparison);
//  * nucleolus  — the nucleolus payoff's maximum excess equals the
//    least-core epsilon (the nucleolus lexicographically minimises
//    excesses, so its first level must match the least-core optimum);
//  * core       — the reported in_core flags agree with a recomputed
//    max-violation residual.
//
// runtime::compare_schemes_resilient_verified() is where the CLI's
// --verify flag lands: at kCheap it runs these audits over the scheme
// table; at kFull it additionally attaches a CertifyingObserver so every
// LP solve inside the run carries a validated certificate (and is
// repaired by the cascade when not).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/sharing.hpp"
#include "lp/simplex.hpp"
#include "verify/certificates.hpp"
#include "verify/certified.hpp"

namespace fedshare::verify {

/// One audit finding.
struct AuditIssue {
  std::string check;   ///< e.g. "superadditivity", "efficiency:shapley"
  std::string detail;  ///< human-readable description
  double magnitude = 0.0;
};

/// Aggregate audit outcome.
struct AuditReport {
  bool passed = true;        ///< no issue recorded (notes do not count)
  std::size_t checks = 0;    ///< individual assertions evaluated
  std::vector<AuditIssue> issues;  ///< failures; capped at kMaxIssues
  /// Informational findings (e.g. a non-superadditive overlapping
  /// game): true structural facts worth surfacing, not errors.
  std::vector<AuditIssue> notes;
  /// LP certification tallies (populated at VerifyLevel::kFull).
  CertifyingObserver::Stats lp;
  bool lp_stats_valid = false;

  static constexpr std::size_t kMaxIssues = 32;
  void add_issue(std::string check, std::string detail, double magnitude);
  void add_note(std::string check, std::string detail, double magnitude);
};

/// Spot-checks monotonicity and superadditivity of `game` on
/// `options.audit_samples` sampled coalition pairs (deterministic in
/// `options.audit_seed`). Exhaustive pairs are sampled with replacement;
/// n <= 1 games are vacuously clean.
[[nodiscard]] AuditReport audit_game(const game::Game& game,
                                     const VerifyOptions& options);

/// Audits scheme outcomes against `game` (efficiency, core residuals,
/// nucleolus excess optimality), appending to `report`. `lp_options`
/// configures the least-core re-solve used by the nucleolus check.
void audit_outcomes(const game::TabularGame& game,
                    const std::vector<game::SchemeOutcome>& outcomes,
                    const lp::SimplexOptions& lp_options,
                    const VerifyOptions& options, AuditReport& report);

}  // namespace fedshare::verify
